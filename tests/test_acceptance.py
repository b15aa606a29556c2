"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every check is exact (zero tolerance) and the stated runtime
budgets are asserted.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

from itdpf.cli import main
from itdpf.client import run_query
from itdpf.dpf import PointFunction, evaluate_key, keygen
from itdpf.errors import FamilyViolationError
from itdpf.interpolation import (InterpolationScheme, build_scheme,
                                 verify_scheme)
from itdpf.matching import MatchingFamily, search_family, trivial_family, verify_family
from itdpf.oracles import (check_distribution_equality,
                           derivative_consistency_check, key_size_sweep,
                           reconstruction_identity_check)
from itdpf.params import build_params
from itdpf import protocol


def _announce(number: int, ok: bool, text: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def _exhaustive_correctness(params, scheme, family, betas, seeds):
    n_dom = family.size
    cases = failures = 0
    for seed in seeds:
        for alpha in range(1, n_dom + 1):
            for beta in betas:
                keys = keygen(params, family, scheme,
                              PointFunction(n_dom, params.p, alpha, beta),
                              random.Random(seed))
                for x in range(1, n_dom + 1):
                    cases += 1
                    total = sum(
                        evaluate_key(params, family, scheme, key, x)
                        for key in keys) % params.p
                    if total != (beta if x == alpha else 0):
                        failures += 1
    return cases, failures


def test_criterion_1_exhaustive_correctness_binary(params_a, scheme_a,
                                                   family_a16):
    start = time.monotonic()
    assert scheme_a.n == 3 and len(scheme_a.points) * 2 == 6
    cases, failures = _exhaustive_correctness(
        params_a, scheme_a, family_a16, betas=[1], seeds=[0, 1, 2, 3, 4])
    elapsed = time.monotonic() - start
    _announce(1, cases == 1280 and failures == 0 and elapsed < 30,
              f"binary fixture: {cases} cases, {failures} failures, "
              f"{elapsed:.1f}s (< 30s)")


def test_criterion_2_exhaustive_correctness_odd(params_b, scheme_b, family_b8):
    start = time.monotonic()
    assert scheme_b.n >= 4            # no 3-point scheme exists over F_25
    cases, failures = _exhaustive_correctness(
        params_b, scheme_b, family_b8, betas=range(5), seeds=[0, 1, 2])
    elapsed = time.monotonic() - start
    _announce(2, cases == 960 and failures == 0 and elapsed < 10,
              f"odd-characteristic fixture: {cases} cases, {failures} "
              f"failures, {elapsed:.1f}s (< 10s)")


def test_criterion_3_interpolation_certificates(params_a, scheme_a,
                                                params_b, scheme_b):
    ok = True
    for name, params, scheme in (("binary", params_a, scheme_a),
                                 ("odd", params_b, scheme_b)):
        assert len(params.S_M) == 8
        cert = verify_scheme(params, scheme, random_polynomials=100)
        ok &= cert.ok and cert.random_failures == 0
    _announce(3, ok, "both schemes satisfy all 8 monomial constraints and "
                     "100 random-polynomial recoveries, exactly")


def test_criterion_4_lift_never_inconsistent():
    tuples = [((7, 73), 2), ((2, 3), 5), ((2, 3), 7),
              ((3, 5), 2), ((3, 7), 2), ((2, 5), 3)]
    for primes, p in tuples:
        params = build_params(primes, p)
        scheme = build_scheme(params)     # raises LiftInconsistentError on failure
        assert verify_scheme(params, scheme).ok
    _announce(4, True, f"multiplicity-2 lift consistent across "
                       f"{len(tuples)} parameter tuples")


def test_criterion_5_oracles_and_mutations(params_a, scheme_a, family_a16,
                                           params_b, scheme_b, family_b8):
    rng = random.Random(2024)
    ok = True
    for params, scheme, family in ((params_a, scheme_a, family_a16),
                                   (params_b, scheme_b, family_b8)):
        for _ in range(1000):
            alpha = rng.randrange(family.size) + 1
            x = rng.randrange(family.size) + 1
            blind = [params.H[rng.randrange(params.m)]
                     for _ in range(family.h)]
            r1 = derivative_consistency_check(params, family, scheme,
                                              alpha, x, blind)
            r2 = reconstruction_identity_check(params, family, scheme,
                                               alpha, x, blind)
            ok &= r1.ok and r2.ok

    # Mutation 1: a corrupted recovery coefficient must be caught.
    a00, a01 = scheme_b.coeffs[0]
    bad_scheme = InterpolationScheme(
        scheme_b.points, scheme_b.point_logs,
        ((a00 + params_b.field.one, a01),) + scheme_b.coeffs[1:],
        scheme_b.base_coeffs)
    blind = [params_b.H[1]] * 8
    caught_coeff = not reconstruction_identity_check(
        params_b, family_b8, bad_scheme, 1, 1, blind).ok

    # Mutation 2: a corrupted family vector entry must be caught.
    V = list(family_b8.V)
    row = list(V[0])
    row[3] = 2                         # cross product 2 is outside S_30
    V[0] = tuple(row)
    bad_family = MatchingFamily(params_b.M, 8, family_b8.U, tuple(V),
                                certified=True)
    try:
        derivative_consistency_check(params_b, bad_family, scheme_b,
                                     1, 4, blind)
        caught_family = False
    except FamilyViolationError:
        caught_family = True

    _announce(5, ok and caught_coeff and caught_family,
              "2000 random oracle cases exact; both mutations detected")


def test_criterion_6_perfect_security_enumeration(params_b, scheme_b,
                                                  family_b2):
    f0 = PointFunction(2, 5, 1, 1)
    f1 = PointFunction(2, 5, 2, 3)
    ok = True
    for slot in range(scheme_b.n):
        report = check_distribution_equality(params_b, family_b2, scheme_b,
                                             f0, f1, slot)
        ok &= report.ok and not report.skipped
    _announce(6, ok, f"share multisets over all 36 blinds identical for "
                     f"every slot (n={scheme_b.n}); mask translation is a "
                     f"bijection")


def test_criterion_7_key_size_formula(params_a, scheme_a):
    audits = key_size_sweep(params_a, scheme_a, (2, 4, 8, 16, 32))
    slope = 2 * params_a.tau * 1
    residual = sum(abs(a.measured - (a.header + slope * (a.h + 1)))
                   for a in audits)
    ok = all(a.ok for a in audits) and residual == 0
    _announce(7, ok, f"measured bytes match header + 2(h+1)*tau*width for "
                     f"h in {{2,4,8,16,32}}; affine residual = {residual}")


def test_criterion_8_family_certificates(params_b):
    ok = all(verify_family(trivial_family(1022, h),
                           (0, 1, 147, 365, 511, 512, 658, 876)).ok
             for h in range(1, 65))
    for seed in range(4):
        fam = search_family(params_b, h=4, n_goal=5, seed=seed, budget=4000)
        ok &= verify_family(fam, params_b.S_M).ok
    fam = trivial_family(30, 4)
    broken = MatchingFamily(30, 4, fam.U, (fam.U[0],) + fam.V[1:])
    cert = verify_family(broken, params_b.S_M)
    ok &= (not cert.ok) and cert.violation == (1, 1, 1)
    _announce(8, ok, "trivial families certify for h in [1,64]; search "
                     "outputs certify; corruption names pair (1, 1)")


def test_criterion_9_distributed_demo(tmp_path_factory):
    start = time.monotonic()
    ok = True
    for primes, p, h, tag in [((7, 73), 2, 16, "binary"),
                              ((2, 3), 5, 8, "odd")]:
        workdir = tmp_path_factory.mktemp(f"demo_{tag}")
        paths = {name: str(workdir / f"{name}.json")
                 for name in ("params", "scheme", "family")}
        assert main(["params", "--primes", ",".join(map(str, primes)),
                     "--p", str(p), "--out", paths["params"]]) == 0
        assert main(["scheme", "--params", paths["params"],
                     "--out", paths["scheme"]]) == 0
        assert main(["family", "--params", paths["params"], "--h", str(h),
                     "--out", paths["family"]]) == 0

        params = build_params(primes, p)
        scheme = build_scheme(params)
        family = trivial_family(params.M, h)
        rng = random.Random(h)
        db = [rng.randrange(p) for _ in range(h)]
        db_path = workdir / "db.txt"
        db_path.write_text("\n".join(str(v) for v in db) + "\n")

        procs = []
        addresses = []
        try:
            for i in range(2 * scheme.n):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "itdpf", "serve",
                     "--index", str(i), "--port", "0",
                     "--params", paths["params"], "--scheme", paths["scheme"],
                     "--family", paths["family"], "--db", str(db_path)],
                    stdout=subprocess.PIPE, text=True)
                ready = json.loads(proc.stdout.readline())
                addresses.append(("127.0.0.1", ready["port"]))
                procs.append(proc)

            # Pre-upload request must be answered with NO_KEY.
            import socket
            with socket.create_connection(addresses[0]) as sock:
                reply = protocol.request(sock, protocol.EVAL_REQ,
                                         (1).to_bytes(4, "big"))
                ok &= (reply.type == protocol.ERROR
                       and reply.error_name() == "NO_KEY")

            for alpha in range(1, h + 1):
                result = run_query(addresses, params, family, scheme,
                                   alpha=alpha, beta=1, seed=alpha, pir=True)
                ok &= result.value == db[alpha - 1]
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=10)
                proc.stdout.close()
    elapsed = time.monotonic() - start
    _announce(9, ok and elapsed < 60,
              f"PIR demo over real server processes retrieved every entry "
              f"(mod 2 and mod 5); pre-upload request errored NO_KEY; "
              f"{elapsed:.1f}s (< 60s)")


def test_criterion_10_artifact_determinism(tmp_path_factory):
    def produce(workdir):
        paths = {name: str(workdir / f"{name}.json")
                 for name in ("params", "scheme", "family")}
        assert main(["params", "--primes", "7,73", "--p", "2",
                     "--out", paths["params"]]) == 0
        assert main(["scheme", "--params", paths["params"],
                     "--out", paths["scheme"]]) == 0
        assert main(["family", "--params", paths["params"], "--h", "16",
                     "--out", paths["family"]]) == 0
        keydir = workdir / "keys"
        assert main(["keygen", "--params", paths["params"],
                     "--scheme", paths["scheme"], "--family", paths["family"],
                     "--alpha", "3", "--beta", "1", "--seed", "41",
                     "--outdir", str(keydir)]) == 0
        hashes = {}
        for path in sorted(workdir.rglob("*.json")):
            hashes[path.relative_to(workdir).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        return hashes

    first = produce(tmp_path_factory.mktemp("det_one"))
    second = produce(tmp_path_factory.mktemp("det_two"))
    _announce(10, first == second and len(first) >= 9,
              f"rerun produced byte-identical artifacts "
              f"({len(first)} files hash-compared)")
