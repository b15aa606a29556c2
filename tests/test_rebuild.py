"""params.json and scheme.json load by rebuilding them.

The loader rebuilds params from (primes, p, tau) and a scheme from
(B_logs, mult1), and accepts a file only when it is exactly what the
writer produces for the rebuilt object.  A file that is consistent in
itself but not the canonical derivation (another irreducible zeta,
another generator, another n_target, an extra field) exits 2, and so
does a scheme whose mult1 fails the certificate.
"""

import json
import time

import pytest

from itdpf.cli import main
from itdpf.errors import ParameterError
from itdpf.field import _poly_powmod, is_irreducible
from itdpf.interpolation import (_lifted_scheme, build_scheme,
                                 scheme_from_json, scheme_to_json)
from itdpf.params import build_params, params_from_json, params_to_json

# r = 1..3 prime factors of m, p = 2..13, and F_{11^6} (primes 3, 7 and
# p = 11), whose order is above TABLE_LIMIT.
SWEEP = [
    ((3,), 2), ((5,), 2), ((7,), 2), ((2,), 3), ((3,), 5), ((5,), 3),
    ((7,), 13),
    ((7, 73), 2), ((2, 3), 5), ((2, 3), 7), ((3, 5), 2), ((3, 7), 2),
    ((2, 5), 3), ((2, 7), 11), ((2, 13), 3),
    ((2, 3, 5), 7), ((2, 3, 5), 11), ((2, 3, 7), 13), ((3, 5, 7), 2),
    ((2, 5, 7), 11), ((2, 3, 13), 5),
    ((3, 7), 11),
]


@pytest.mark.parametrize("primes, p", SWEEP)
def test_params_load_back_byte_identical(primes, p):
    data = params_to_json(build_params(primes, p))
    assert params_to_json(params_from_json(data)) == data


def _odd_over_other_zeta():
    """The odd fixture written over zeta = X^2 + 2, also irreducible over
    Z_5, with an element of order 6 there as gamma and H its powers."""
    p, zeta = 5, [2, 0, 1]
    assert is_irreducible(zeta, p)

    def power(a, k):
        return _poly_powmod(a, k, zeta, p)
    one = [1, 0]
    gamma = next([c0, c1] for c1 in range(p) for c0 in range(p)
                 if power([c0, c1], 6) == one
                 and one not in (power([c0, c1], 2), power([c0, c1], 3)))
    H = [",".join(map(str, power(gamma, k))) for k in range(6)]
    return {"zeta": zeta, "gamma": H[1], "H": H}


def _binary_over_gamma_5():
    """The binary fixture with gamma^5, also of order 511, and its H."""
    H = json.loads(params_to_json(build_params([7, 73], 2)))["H"]
    return {"gamma": H[5], "H": [H[5 * k % 511] for k in range(511)]}


TAMPERED = {
    "n_target_5": ((2, 3), 5, lambda: {"n_target": 5}),
    "n_target_600": ((2, 3), 5, lambda: {"n_target": 600}),
    "n_target_string": ((2, 3), 5, lambda: {"n_target": "x"}),
    "odd_other_zeta": ((2, 3), 5, _odd_over_other_zeta),
    "binary_gamma_5": ((7, 73), 2, _binary_over_gamma_5),
    "extra_field": ((2, 3), 5, lambda: {"comment": "hand-edited"}),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_scheme_on_tampered_params_exits_2(tmp_path, capsys, case):
    primes, p, fields = TAMPERED[case]
    obj = {**json.loads(params_to_json(build_params(primes, p))), **fields()}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(obj))
    start = time.monotonic()
    rc = main(["scheme", "--params", str(path),
               "--out", str(tmp_path / "scheme.json")])
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parameter error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert elapsed < 2


def test_params_error_names_first_differing_field():
    obj = json.loads(params_to_json(build_params([2, 3], 5)))
    obj["n_target"] = 4
    obj["S_m"] = [0, 1, 2, 3]
    with pytest.raises(ParameterError, match="'S_m' differs"):
        params_from_json(json.dumps(obj).encode())


def test_scheme_rejects_unknown_field():
    params = build_params([2, 3], 5)
    obj = json.loads(scheme_to_json(build_scheme(params)))
    obj["note"] = 1
    with pytest.raises(ParameterError, match="unknown field 'note'"):
        scheme_from_json(params, json.dumps(obj).encode())


def test_scheme_rejects_more_points_than_coefficients():
    """B, B_logs and n agree with one more point than mult1 and A cover;
    the rebuild alone would write the same file back."""
    params = build_params([2, 3], 5)
    obj = json.loads(scheme_to_json(build_scheme(params)))
    d = next(d for d in range(params.m) if d not in obj["B_logs"])
    obj["B_logs"].append(d)
    obj["B"].append(params.H[d].as_string())
    obj["n"] += 1
    with pytest.raises(ParameterError):
        scheme_from_json(params, json.dumps(obj).encode())


def test_scheme_rejects_negative_log():
    """H[d - m] is H[d], so only the range check refuses the alias."""
    params = build_params([2, 3], 5)
    obj = json.loads(scheme_to_json(build_scheme(params)))
    obj["B_logs"][-1] -= params.m
    with pytest.raises(ParameterError, match=r"outside \[0, m\)"):
        scheme_from_json(params, json.dumps(obj).encode())


def _non_interpolating_scheme(params):
    """scheme.json with mult1[0] raised by one and A lifted from the new
    mult1: the closed form holds, so the rebuild writes the same file
    back, but the coefficients no longer sum to 1 at s = 0."""
    scheme = build_scheme(params)
    mult1 = [a0 for a0, _ in scheme.coeffs]
    mult1[0] = mult1[0] + params.field.one
    return scheme_to_json(_lifted_scheme(params, scheme.point_logs, mult1))


def test_scheme_load_checks_the_certificate(tmp_path, capsys):
    params = build_params([2, 3], 5)
    data = _non_interpolating_scheme(params)
    with pytest.raises(ParameterError, match=r"fails its certificate at s="):
        scheme_from_json(params, data)

    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("params", "scheme", "family")}
    assert main(["params", "--primes", "2,3", "--p", "5",
                 "--out", paths["params"]]) == 0
    assert main(["scheme", "--params", paths["params"],
                 "--out", paths["scheme"]]) == 0
    assert main(["family", "--params", paths["params"], "--h", "4",
                 "--out", paths["family"]]) == 0
    artifacts = [arg for name, path in paths.items()
                 for arg in (f"--{name}", path)]
    assert main(["keygen", *artifacts, "--alpha", "2", "--beta", "1",
                 "--seed", "0", "--outdir", str(tmp_path / "keys")]) == 0
    key = str(next((tmp_path / "keys").glob("key_*.json")))
    with open(paths["scheme"], "wb") as fh:
        fh.write(data)
    capsys.readouterr()
    assert main(["eval", "--key", key, "--x", "1", *artifacts]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and err.count("\n") == 1
    assert "fails its certificate" in err
