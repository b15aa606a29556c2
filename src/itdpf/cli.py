"""Command-line surface: params -> scheme -> family -> keygen -> eval/verify.

Every stage persists canonical JSON so stages are independently
testable and cacheable; each command prints human-readable progress and
ends stdout with a single machine-parsable JSON line.

Exit codes: 0 success, 1 failed verification checks (or a stdout that
the reader closed early), 2 usage/parameter errors, 3 internal
impossibility (a guaranteed-solvable system failed), 4 artifact mismatch
(digest disagreement).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import client as client_mod
from . import dpf, interpolation, matching, oracles, params as params_mod
from . import protocol
from . import server as server_mod
from .errors import (ArtifactMismatchError, FamilyViolationError,
                     LiftInconsistentError, ParameterError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IMPOSSIBLE = 3
EXIT_MISMATCH = 4


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc


def _write(path: str, data: bytes) -> None:
    """Write `data` to `path`, making its directory first.  A closed
    reader of /dev/stdout stays a BrokenPipeError (see main)."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(data)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def _load_params(path: str):
    data = _read(path)
    return params_mod.params_from_json(data), params_mod.digest_bytes(data)


def _load_artifacts(args):
    """params, its file digest, scheme and family of --params/--scheme/--family."""
    params, digest = _load_params(args.params)
    return (params, digest,
            interpolation.scheme_from_json(params, _read(args.scheme)),
            matching.family_from_json(params, _read(args.family)))


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    primes = _parse_int_list(args.primes)
    params = params_mod.build_params(primes, args.p, args.tau)
    data = params_mod.params_to_json(params)
    _write(args.out, data)
    print(f"m={params.m} M={params.M} tau={params.tau} "
          f"|S_m|={len(params.S_m)} |S_M|={len(params.S_M)} "
          f"n_target={params.n_target}")
    _emit({"command": "params", "out": args.out, "m": params.m,
           "M": params.M, "tau": params.tau, "S_m_size": len(params.S_m),
           "S_M_size": len(params.S_M), "n_target": params.n_target,
           "digest": params_mod.digest_bytes(data)})
    return EXIT_OK


def cmd_scheme(args) -> int:
    params, _ = _load_params(args.params)
    scheme = interpolation.build_scheme(params)
    data = interpolation.scheme_to_json(scheme)
    _write(args.out, data)
    print(f"n={scheme.n} servers={2 * scheme.n}")
    if scheme.n > params.n_target:
        print(f"note: no {params.n_target}-point scheme exists over this "
              f"field; escalated to n={scheme.n}")
    _emit({"command": "scheme", "out": args.out, "n": scheme.n,
           "servers": 2 * scheme.n, "n_target": params.n_target,
           "escalated": scheme.n > params.n_target,
           "B_logs": list(scheme.point_logs),
           "digest": params_mod.digest_bytes(data)})
    return EXIT_OK


def cmd_family(args) -> int:
    params, _ = _load_params(args.params)
    if args.product:
        family = matching.product_family(params, args.h)
    else:
        family = matching.trivial_family(params.M, args.h)
    cert = matching.verify_family(family, params.S_M)
    if not cert.ok:
        raise AssertionError("constructed family failed verification (bug)")
    data = matching.family_to_json(family)
    _write(args.out, data)
    print(f"N={family.size} h={family.h} certified={family.certified}")
    _emit({"command": "family", "out": args.out, "N": family.size,
           "h": family.h, "digest": params_mod.digest_bytes(data)})
    return EXIT_OK


def cmd_keygen(args) -> int:
    params, digest, scheme, family = _load_artifacts(args)
    func = dpf.PointFunction(family.size, params.p, args.alpha, args.beta)
    keys = dpf.keygen(params, family, scheme, func, random.Random(args.seed))
    outdir = Path(args.outdir)    # made by the first _write
    paths = []
    sizes = []
    for key in keys:
        path = outdir / f"key_{key.index:03d}.json"
        _write(str(path), dpf.key_to_json(params, scheme.n, key, digest))
        size = len(dpf.serialize_key(params, key))
        sizes.append(size)
        paths.append(str(path))
        print(f"key {key.index}: {path} ({size} bytes wire form)")
    _emit({"command": "keygen", "outdir": str(outdir), "keys": len(keys),
           "wire_bytes": sizes, "paths": paths})
    return EXIT_OK


def cmd_eval(args) -> int:
    params, digest, scheme, family = _load_artifacts(args)
    key = dpf.key_from_json(params, scheme.n, _read(args.key),
                            expected_digest=digest)
    dpf.check_key(params, scheme, family.h, key)
    y = dpf.evaluate_key(params, family, scheme, key, args.x)
    print(f"y_{key.index}({args.x}) = {y}")
    _emit({"command": "eval", "key_index": key.index, "x": args.x, "y": y})
    return EXIT_OK


def cmd_fulleval(args) -> int:
    params, digest, scheme, family = _load_artifacts(args)
    key = dpf.key_from_json(params, scheme.n, _read(args.key),
                            expected_digest=digest)
    dpf.check_key(params, scheme, family.h, key)
    values = dpf.evaluate_all(params, family, scheme, key)
    print(f"key {key.index}: {values}")
    _emit({"command": "fulleval", "key_index": key.index, "values": values})
    return EXIT_OK


def _verify_keys(params, family, scheme, digest, key_paths, reports):
    keys = []
    parse_report = oracles.OracleReport("key_parse")
    check_report = oracles.OracleReport("key_check")
    for path in key_paths:
        parse_report.cases += 1
        try:
            key = dpf.key_from_json(params, scheme.n, _read(path),
                                    expected_digest=digest)
        except ParameterError as exc:
            parse_report.failures.append({"path": path, "error": str(exc)})
            continue
        check_report.cases += 1
        try:
            dpf.check_key(params, scheme, family.h, key)
        except ParameterError as exc:
            check_report.failures.append({"path": path, "error": str(exc)})
            continue
        keys.append(key)
    reports.extend([parse_report, check_report])

    shape_report = oracles.OracleReport("key_reconstruction_shape")
    if (len(keys) == len(key_paths)
            and sorted(k.index for k in keys) == list(range(2 * scheme.n))):
        shape_report.cases += 1
        total = [0] * family.size
        for key in keys:
            for idx, y in enumerate(dpf.evaluate_all(params, family, scheme, key)):
                total[idx] = (total[idx] + y) % params.p
        nonzero = [(i + 1, v) for i, v in enumerate(total) if v]
        if len(nonzero) > 1:
            shape_report.failures.append({"kind": "not_a_point_function",
                                          "nonzero": nonzero})
        elif nonzero:
            print(f"reconstruction: point ({nonzero[0][0]}, {nonzero[0][1]})")
        else:
            print("reconstruction: all-zero function")
    else:
        shape_report.skipped = "need all 2n valid keys for the shape check"
    reports.append(shape_report)


def cmd_verify(args) -> int:
    if args.checks < 0 or args.budget < 0:
        raise ParameterError("--checks and --budget must be >= 0")
    params, digest, scheme, family = _load_artifacts(args)
    rng = random.Random(args.seed)
    reports: list[oracles.OracleReport] = []

    family_report = oracles.OracleReport("family_certificate")
    cert = matching.verify_family(family, params.S_M)
    family_report.cases = cert.checked_pairs
    if not cert.ok:
        family_report.failures.append({"pair": cert.violation[:2],
                                       "product": cert.violation[2]})
    reports.append(family_report)

    scheme_report = oracles.OracleReport("scheme_certificate")
    scert = interpolation.verify_scheme(params, scheme, seed=args.seed)
    scheme_report.cases = len(params.S_M) + scert.random_cases
    if not scert.ok:
        scheme_report.failures.append(
            {"exponents": list(scert.failed_exponents),
             "random_failures": scert.random_failures})
    reports.append(scheme_report)

    deriv = oracles.OracleReport("derivative_consistency")
    recon = oracles.OracleReport("reconstruction_identity")
    if args.exhaustive:
        cases = [(a, x) for a in range(1, family.size + 1)
                 for x in range(1, family.size + 1)]
    else:
        cases = [(rng.randrange(family.size) + 1, rng.randrange(family.size) + 1)
                 for _ in range(args.checks)]
    for alpha, x in cases:
        blind = [params.H[rng.randrange(params.m)] for _ in range(family.h)]
        try:
            r1 = oracles.derivative_consistency_check(
                params, family, scheme, alpha, x, blind)
            r2 = oracles.reconstruction_identity_check(
                params, family, scheme, alpha, x, blind)
        except FamilyViolationError as exc:
            deriv.failures.append({"alpha": alpha, "x": x, "error": str(exc)})
            continue
        deriv.cases += r1.cases
        deriv.failures.extend(r1.failures)
        recon.cases += r2.cases
        recon.failures.extend(r2.failures)
    reports.extend([deriv, recon])

    if family.size >= 2 and params.p >= 2:
        f0 = dpf.PointFunction(family.size, params.p, 1, 1 % params.p)
        f1 = dpf.PointFunction(family.size, params.p, 2,
                               min(3, params.p - 1))
        reports.append(oracles.check_distribution_equality(
            params, family, scheme, f0, f1, enumeration_budget=args.budget))

    if args.keys:
        _verify_keys(params, family, scheme, digest, args.keys, reports)

    ok = all(r.ok for r in reports)
    for r in reports:
        status = "SKIP" if r.skipped else ("PASS" if r.ok else "FAIL")
        print(f"{status} {r.check}: {r.cases} cases"
              + (f" ({r.skipped})" if r.skipped else "")
              + ("" if r.ok else f" failures={r.failures[:3]}"))
    _emit({"command": "verify", "ok": ok,
           "reports": [r.as_dict(digest) for r in reports]})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    params, _ = _load_params(args.params)
    scheme = interpolation.scheme_from_json(params, _read(args.scheme))
    h_values = _parse_int_list(args.h_values)
    if not h_values:
        raise ParameterError("--h-values lists no h")
    audits = oracles.key_size_sweep(params, scheme, h_values)
    slope = 2 * params.tau * dpf.coeff_width(params.p)
    print(f"{'h':>6} {'measured':>10} {'formula':>10} {'ok':>4}")
    rows = []
    residual = 0
    for audit in audits:
        print(f"{audit.h:>6} {audit.measured:>10} {audit.formula:>10} "
              f"{'yes' if audit.ok else 'NO':>4}")
        rows.append({"h": audit.h, "measured": audit.measured,
                     "formula": audit.formula, "ok": audit.ok})
        residual += abs(audit.measured - audit.formula)
    ok = residual == 0
    _emit({"command": "bench", "ok": ok, "slope_bytes_per_h": slope,
           "affine_residual": residual, "rows": rows})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_serve(args) -> int:
    params, _, scheme, family = _load_artifacts(args)
    server_mod.run_server(args.index, args.port, params, family, scheme,
                          db_path=args.db, host=args.host)
    return EXIT_OK


def cmd_query(args) -> int:
    params, _, scheme, family = _load_artifacts(args)
    addresses = []
    for part in args.servers.split(","):
        host, _, port = part.strip().rpartition(":")
        # getaddrinfo would silently take a port above 65535 mod 2^16.
        if not host or not port.isdigit() or not 1 <= int(port) <= 65535:
            raise ParameterError(f"bad server address {part!r}")
        addresses.append((host, int(port)))
    try:
        result = client_mod.run_query(addresses, params, family, scheme,
                                      args.alpha, args.beta, args.seed,
                                      x=args.x, pir=args.pir)
    except (OSError, protocol.WireError) as exc:
        raise client_mod.QueryError(f"{type(exc).__name__}: {exc}") from exc
    print(f"result = {result.value}")
    _emit({"command": "query", "value": result.value,
           "responses": list(result.responses),
           "db_digest": result.db_digest})
    return EXIT_OK


def cmd_demo(args) -> int:
    """Chain all pipeline stages with the 6-server fixture defaults; stop
    at the first stage that fails and return its exit code."""
    workdir = Path(args.workdir)
    params, scheme, family = (str(workdir / f"{name}.json")
                              for name in ("params", "scheme", "family"))
    keydir = workdir / "keys"
    artifacts = ["--params", params, "--scheme", scheme, "--family", family]
    stages = [
        ["params", "--primes", "7,73", "--p", "2", "--out", params],
        ["scheme", "--params", params, "--out", scheme],
        ["family", "--params", params, "--h", str(args.h), "--out", family],
        ["keygen", *artifacts, "--alpha", str(args.alpha),
         "--beta", str(args.beta), "--seed", str(args.seed),
         "--outdir", str(keydir)],
    ]
    for argv in stages:
        rc = main(argv)
        if rc != EXIT_OK:
            break
    else:
        keys = sorted(str(p) for p in keydir.glob("key_*.json"))
        rc = main(["verify", *artifacts, "--checks", "25", "--keys", *keys])
    _emit({"command": "demo", "ok": rc == EXIT_OK, "workdir": str(workdir)})
    return rc


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itdpf",
        description="Multi-server distributed point functions over Z_p")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    artifacts = argparse.ArgumentParser(add_help=False)
    for name in ("--params", "--scheme", "--family"):
        artifacts.add_argument(name, required=True)

    p = sub.add_parser("params", help="synthesize a parameter file")
    p.add_argument("--primes", required=True,
                   help="comma-separated distinct primes whose product is m")
    p.add_argument("--p", type=int, required=True, help="output characteristic")
    p.add_argument("--tau", type=int, default=1,
                   help="minimum extension degree (default: minimal valid)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("scheme", help="search and certify an interpolation scheme")
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("family", help="construct a matching family")
    p.add_argument("--params", required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--product", action="store_true",
                   help="CRT product family, N = (h/d)^d (default: basis, N = h)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("keygen", parents=[artifacts],
                       help="generate the 2n key files")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("eval", parents=[artifacts],
                       help="evaluate one key at one input")
    p.add_argument("--key", required=True)
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fulleval", parents=[artifacts],
                       help="evaluate one key on the whole domain")
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_fulleval)

    p = sub.add_parser("verify", parents=[artifacts],
                       help="run the verification oracle suite")
    p.add_argument("--keys", nargs="*", default=[])
    p.add_argument("--exhaustive", action="store_true",
                   help="sweep every (alpha, x) pair instead of sampling")
    p.add_argument("--checks", type=int, default=100,
                   help="random (alpha, x, blind) cases when not exhaustive")
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="enumeration budget for the distribution check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="key-size sweep over h")
    p.add_argument("--params", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--h-values", default="2,4,8,16,32", dest="h_values")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", parents=[artifacts],
                       help="run one evaluation server")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--db", default=None)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", parents=[artifacts],
                       help="query a running server fleet")
    p.add_argument("--servers", required=True,
                   help="comma-separated host:port list, one per key index")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="keygen seed, for a reproducible query; "
                        "keygen draws from the OS when absent")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--pir", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("demo", help="run the whole pipeline on fixture defaults")
    p.add_argument("--workdir", required=True)
    p.add_argument("--h", type=int, default=16)
    p.add_argument("--alpha", type=int, default=3)
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()    # a closed stdout raises here, not at exit
        return code
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LiftInconsistentError as exc:
        print(f"internal impossibility: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except ArtifactMismatchError as exc:
        print(f"artifact mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except client_mod.QueryError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point it at devnull, so the
        # interpreter's final flush cannot raise again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
