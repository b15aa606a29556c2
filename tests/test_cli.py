import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import itdpf
from itdpf import client as client_mod
from itdpf.cli import main


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def _pipeline(tmp_path, primes="7,73", p="2", h="16"):
    paths = {
        "params": str(tmp_path / "params.json"),
        "scheme": str(tmp_path / "scheme.json"),
        "family": str(tmp_path / "family.json"),
    }
    assert main(["params", "--primes", primes, "--p", p,
                 "--out", paths["params"]]) == 0
    assert main(["scheme", "--params", paths["params"],
                 "--out", paths["scheme"]]) == 0
    assert main(["family", "--params", paths["params"], "--h", h,
                 "--out", paths["family"]]) == 0
    return paths


@pytest.fixture(scope="module")
def binary_pipeline(tmp_path_factory):
    return _pipeline(tmp_path_factory.mktemp("binary"))


def _keygen(tmp_path, paths, alpha=3, beta=1, seed=11):
    outdir = tmp_path / "keys"
    assert main(["keygen", "--params", paths["params"],
                 "--scheme", paths["scheme"], "--family", paths["family"],
                 "--alpha", str(alpha), "--beta", str(beta),
                 "--seed", str(seed), "--outdir", str(outdir)]) == 0
    return sorted(str(p) for p in outdir.glob("key_*.json"))


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_reports_tau_nine(tmp_path, capsys):
    out = str(tmp_path / "p.json")
    assert main(["params", "--primes", "7,73", "--p", "2", "--out", out]) == 0
    info = _last_json(capsys)
    assert info["tau"] == 9
    assert info["m"] == 511 and info["S_M_size"] == 8


def test_params_rejects_composite_p(tmp_path):
    assert main(["params", "--primes", "2,3", "--p", "6",
                 "--out", str(tmp_path / "p.json")]) == 2


def test_params_rejects_p_dividing_m(tmp_path):
    assert main(["params", "--primes", "2,3", "--p", "3",
                 "--out", str(tmp_path / "p.json")]) == 2


@pytest.mark.parametrize("tau", ["0", "-1"])
def test_params_rejects_tau_below_one(tmp_path, tau):
    assert main(["params", "--primes", "2,3", "--p", "5", "--tau", tau,
                 "--out", str(tmp_path / "p.json")]) == 2


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------

def test_scheme_binary_fixture(binary_pipeline, capsys):
    assert main(["scheme", "--params", binary_pipeline["params"],
                 "--out", binary_pipeline["scheme"]]) == 0
    info = _last_json(capsys)
    assert info["n"] == 3 and info["servers"] == 6
    assert info["escalated"] is False


def test_scheme_escalation_notice(tmp_path, capsys):
    params = str(tmp_path / "p.json")
    scheme = str(tmp_path / "s.json")
    assert main(["params", "--primes", "2,3", "--p", "5", "--out", params]) == 0
    capsys.readouterr()
    assert main(["scheme", "--params", params, "--out", scheme]) == 0
    captured = capsys.readouterr().out
    assert "escalated to n=4" in captured
    info = json.loads(captured.strip().splitlines()[-1])
    assert info["n"] == 4 and info["escalated"] is True


def test_scheme_rerun_is_byte_identical(binary_pipeline, tmp_path):
    again = str(tmp_path / "again.json")
    assert main(["scheme", "--params", binary_pipeline["params"],
                 "--out", again]) == 0
    with open(binary_pipeline["scheme"], "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


# ---------------------------------------------------------------------------
# keygen / eval / fulleval
# ---------------------------------------------------------------------------

def test_keygen_deterministic_and_sized(binary_pipeline, tmp_path, capsys):
    keys1 = _keygen(tmp_path / "a", binary_pipeline)
    info = _last_json(capsys)
    assert info["wire_bytes"] == [313] * 6
    keys2 = _keygen(tmp_path / "b", binary_pipeline)
    for p1, p2 in zip(keys1, keys2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


def test_eval_and_fulleval(binary_pipeline, tmp_path, capsys):
    keys = _keygen(tmp_path, binary_pipeline, alpha=3, beta=1, seed=11)
    total = None
    for path in keys:
        assert main(["fulleval", "--key", path,
                     "--params", binary_pipeline["params"],
                     "--scheme", binary_pipeline["scheme"],
                     "--family", binary_pipeline["family"]]) == 0
        values = _last_json(capsys)["values"]
        total = values if total is None else [
            (a + b) % 2 for a, b in zip(total, values)]
    assert total == [1 if x == 3 else 0 for x in range(1, 17)]

    assert main(["eval", "--key", keys[0], "--x", "3",
                 "--params", binary_pipeline["params"],
                 "--scheme", binary_pipeline["scheme"],
                 "--family", binary_pipeline["family"]]) == 0
    assert "y" in _last_json(capsys)


def test_eval_out_of_range_is_usage_error(binary_pipeline, tmp_path):
    keys = _keygen(tmp_path, binary_pipeline)
    assert main(["eval", "--key", keys[0], "--x", "17",
                 "--params", binary_pipeline["params"],
                 "--scheme", binary_pipeline["scheme"],
                 "--family", binary_pipeline["family"]]) == 2


def test_keygen_out_of_range_is_usage_error(binary_pipeline, tmp_path):
    for alpha, beta in ((17, 1), (0, 1), (3, 2)):
        assert main(["keygen", "--params", binary_pipeline["params"],
                     "--scheme", binary_pipeline["scheme"],
                     "--family", binary_pipeline["family"],
                     "--alpha", str(alpha), "--beta", str(beta),
                     "--seed", "0", "--outdir", str(tmp_path / "k")]) == 2


def test_digest_mismatch_is_exit_four(binary_pipeline, tmp_path):
    keys = _keygen(tmp_path, binary_pipeline)
    # Any byte change to the params file breaks the recorded digest.
    params2 = tmp_path / "params2.json"
    with open(binary_pipeline["params"], "rb") as fh:
        params2.write_bytes(fh.read() + b"\n")
    assert main(["eval", "--key", keys[0], "--x", "3",
                 "--params", str(params2),
                 "--scheme", binary_pipeline["scheme"],
                 "--family", binary_pipeline["family"]]) == 4


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_clean_pass(binary_pipeline, tmp_path, capsys):
    keys = _keygen(tmp_path, binary_pipeline, beta=1)
    assert main(["verify", "--params", binary_pipeline["params"],
                 "--scheme", binary_pipeline["scheme"],
                 "--family", binary_pipeline["family"],
                 "--checks", "20", "--keys", *keys]) == 0
    info = _last_json(capsys)
    assert info["ok"] is True


def test_verify_reports_zero_function(binary_pipeline, tmp_path, capsys):
    keys = _keygen(tmp_path, binary_pipeline, beta=0)
    assert main(["verify", "--params", binary_pipeline["params"],
                 "--scheme", binary_pipeline["scheme"],
                 "--family", binary_pipeline["family"],
                 "--checks", "5", "--keys", *keys]) == 0
    assert "all-zero function" in capsys.readouterr().out


def test_verify_detects_flipped_key_byte(binary_pipeline, tmp_path, capsys):
    keys = _keygen(tmp_path, binary_pipeline)
    with open(keys[2], "rb") as fh:
        data = bytearray(fh.read())
    anchor = data.find(b'"c":["')
    flip_at = anchor + 7          # inside the first share coefficient string
    data[flip_at] = ord("1") if data[flip_at] == ord("0") else ord("0")
    with open(keys[2], "wb") as fh:
        fh.write(bytes(data))
    rc = main(["verify", "--params", binary_pipeline["params"],
               "--scheme", binary_pipeline["scheme"],
               "--family", binary_pipeline["family"],
               "--checks", "5", "--keys", *keys])
    assert rc != 0
    info = _last_json(capsys)
    failing = [r["check"] for r in info["reports"] if r["failures"]]
    assert failing, "no named failing check"


def test_verify_exhaustive_small_fixture(tmp_path, capsys):
    paths = _pipeline(tmp_path, primes="2,3", p="5", h="4")
    assert main(["verify", "--params", paths["params"],
                 "--scheme", paths["scheme"], "--family", paths["family"],
                 "--exhaustive"]) == 0
    info = _last_json(capsys)
    by_name = {r["check"]: r for r in info["reports"]}
    assert by_name["reconstruction_identity"]["cases"] == 2 * 16
    assert "skipped" not in by_name["distribution_equality"]


@pytest.mark.parametrize("primes, p", [("7,73", "2"), ("2,3", "5")])
def test_product_family_end_to_end(tmp_path, capsys, primes, p):
    """The product family at h = 12 (N = 64) through keygen and an
    exhaustive verify with the keys: every check passes and the keys
    reconstruct the point."""
    paths = _pipeline(tmp_path, primes=primes, p=p, h="12")
    assert main(["family", "--params", paths["params"], "--h", "12",
                 "--product", "--out", paths["family"]]) == 0
    assert _last_json(capsys)["N"] == 64
    keys = _keygen(tmp_path, paths, alpha=50, beta=1, seed=5)
    assert main(["verify", "--params", paths["params"],
                 "--scheme", paths["scheme"], "--family", paths["family"],
                 "--exhaustive", "--keys", *keys]) == 0
    out = capsys.readouterr().out
    assert "reconstruction: point (50, 1)" in out
    assert json.loads(out.strip().splitlines()[-1])["ok"] is True


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_table(binary_pipeline, capsys):
    assert main(["bench", "--params", binary_pipeline["params"],
                 "--scheme", binary_pipeline["scheme"]]) == 0
    info = _last_json(capsys)
    assert info["affine_residual"] == 0
    assert [row["h"] for row in info["rows"]] == [2, 4, 8, 16, 32]
    assert all(row["ok"] for row in info["rows"])


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--checks", "-1"]), ("verify", ["--budget", "-5"]),
    ("bench", ["--h-values", ","])], ids=["checks", "budget", "h_values"])
def test_flags_that_would_check_nothing_exit_2(binary_pipeline, capsys,
                                               command, flags):
    """A negative --checks or --budget, or an empty --h-values, used to
    run no check and report ok."""
    names = ["params", "scheme"] + (["family"] if command == "verify" else [])
    assert main([command, *flags, *(arg for name in names for arg in (
        f"--{name}", binary_pipeline[name]))]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert (captured.err.startswith("parameter error:")
            and captured.err.count("\n") == 1)


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def test_query_draws_a_fresh_seed_unless_given(binary_pipeline, monkeypatch):
    """A fixed default seed gave every seedless query the same blind and
    mask, so one server could compare two queries' shares; a seedless
    query passes no seed, and run_query draws from the OS."""
    seeds = []

    def run_query(addresses, params, family, scheme, alpha, beta, seed,
                  **kwargs):
        seeds.append(seed)
        return client_mod.QueryResult(0, ())

    monkeypatch.setattr(client_mod, "run_query", run_query)
    servers = ",".join(f"127.0.0.1:{9000 + i}" for i in range(6))
    argv = ["query", "--servers", servers, "--alpha", "3", "--beta", "1",
            "--x", "3", *(arg for name in ("params", "scheme", "family")
                          for arg in (f"--{name}", binary_pipeline[name]))]
    for extra in ([], [], ["--seed", "7"]):
        assert main(argv + extra) == 0
    assert seeds[0] is None and seeds[1] is None
    assert seeds[2] == 7


def test_query_keygen_draws_from_the_os_unless_seeded(binary_pipeline,
                                                      monkeypatch, capsys):
    """A seeded Mersenne Twister makes the key set a function of its seed;
    keygen gets SystemRandom unless --seed is given."""
    rngs = []

    def keygen(params, family, scheme, func, rng):
        rngs.append((type(rng), rng.getstate() if type(rng) is random.Random
                     else None))
        raise client_mod.QueryError("stop before connecting")

    monkeypatch.setattr(client_mod, "keygen", keygen)
    servers = ",".join(f"127.0.0.1:{9000 + i}" for i in range(6))
    argv = ["query", "--servers", servers, "--alpha", "3", "--beta", "1",
            "--x", "3", *(arg for name in ("params", "scheme", "family")
                          for arg in (f"--{name}", binary_pipeline[name]))]
    for extra in ([], ["--seed", "7"]):
        assert main(argv + extra) == 1
    assert "stop before connecting" in capsys.readouterr().err
    assert rngs == [(random.SystemRandom, None),
                    (random.Random, random.Random(7).getstate())]


# ---------------------------------------------------------------------------
# demo + artifact determinism (hash comparison across reruns)
# ---------------------------------------------------------------------------

def test_demo_chains_all_stages(tmp_path, capsys):
    assert main(["demo", "--workdir", str(tmp_path / "d"), "--h", "8"]) == 0
    info = _last_json(capsys)
    assert info["ok"] is True


def test_full_rerun_hashes_identical(tmp_path):
    def run(workdir):
        paths = _pipeline(workdir, primes="2,3", p="5", h="6")
        keys = _keygen(workdir, paths, alpha=2, beta=3, seed=99)
        digests = {}
        for name, path in {**paths, **{f"k{i}": k for i, k in enumerate(keys)}}.items():
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    assert run(tmp_path / "one") == run(tmp_path / "two")


def _artifact_hashes(workdir, primes, p):
    """sha256 of params, scheme, the basis family at h=16, the product
    family at h=6 and the basis family's keys at alpha=3, beta=1, seed=41."""
    paths = _pipeline(workdir, primes=primes, p=p, h="16")
    paths["product"] = str(workdir / "product.json")
    assert main(["family", "--params", paths["params"], "--h", "6",
                 "--product", "--out", paths["product"]]) == 0
    for i, key in enumerate(_keygen(workdir, paths, alpha=3, beta=1, seed=41)):
        paths[f"key_{i}"] = key
    digests = {}
    for name, path in paths.items():
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# Recorded from the commit before the closed-form lift, except the product
# family's, recorded when it was added; the artifacts of both fixtures
# must stay byte-identical across commits.
PINNED_HASHES = {
    "7,73": {
        "params": "eb13becb4e5f3c11a58a13e885d44645f64cc159bf5fcca3890874d5452d9583",
        "scheme": "7427bf2e11372a4115fadd69083a94d0be9367021aebfc75992125d9a9278e11",
        "family": "d39df56a0b97a95e792f537a201577d046553cc128884062f7c1f030a68f3b18",
        "product": "00a0b10b1a778c5039ac4329da5b39a1e4a87aea1437dbecd7fe9e24bf678b34",
        "key_0": "0a30b362b51bfd814e9016abb96ad326763359e2d36b0cf0f6494184309dca6a",
        "key_1": "94054f719073607f8e0300bf37e1ebf0f0243aba30eb37c856f612b240c5f4a9",
        "key_2": "654a4552928c1875be080036a74ecd690b4b34e87d349e1edceb7025ec31c721",
        "key_3": "de49457e1adcab8bb078ae6d8e8590cc2334797f512d6272fad66e4a6e71331f",
        "key_4": "935cfebf7ff2130fe6d4f2356c2b2ac8aa8728fb8cb2a6004d233f4e948e4501",
        "key_5": "c2298d524e1150095164cf3bb7ef2788d6f7e30d8b711e82d67149671b58b1c5",
    },
    "2,3": {
        "params": "4312dec9336ce695bd98b6f2ddd17168e71207dd534b9935512ac143a17537c5",
        "scheme": "cd8e55cae2696e71c0df0f7a17f9b9474b8baf80c11d0c8d135a192df8f8b06a",
        "family": "2494b27024940b5e81ec9610452da179f96e8838e819bc79e8d8d3c014538e0a",
        "product": "02c96a88b324d5989cc182cc002ad474927f061c0cc72c95090d844e2c2982a8",
        "key_0": "2ba2fc8f146e82c5301bff48a60a525bd197417599ba12716e540cd9fad7c0f1",
        "key_1": "e74b1606dd6403015c05045118018196ab39caf89b42b975b48fec8c9c135b39",
        "key_2": "3d738f11db6791929c1eb5ab08633c9feeacc955088cf5c6650075931e6743ac",
        "key_3": "28b8f5454370ef64b5bb5b78c2b3cea92871c63e08628505ec7b47d21398f292",
        "key_4": "cf5891dd3c204942ec71b74db8a62649c1cf684b53d17fc04da6c5155fddf297",
        "key_5": "876fec99c2fd6b9f684a3768a7303450ced5f1e5b01bcf9c9f9c95d25f413e10",
        "key_6": "b66006cc282a637240d88a37e4ea7de0016085fa9988f0e20903588e80742075",
        "key_7": "db2b95c8faec19fee85090b9d6c569caebe2e920eb4d88c7c872430500f078fd",
    },
}


@pytest.mark.parametrize("primes, p", [("7,73", "2"), ("2,3", "5")])
def test_artifacts_match_pinned_hashes(tmp_path, primes, p):
    assert _artifact_hashes(tmp_path, primes, p) == PINNED_HASHES[primes]


def test_every_command_emits_json_line(binary_pipeline, capsys):
    assert main(["bench", "--params", binary_pipeline["params"],
                 "--scheme", binary_pipeline["scheme"]]) == 0
    _last_json(capsys)  # raises if the last line is not JSON


def test_closed_stdout_exits_quietly(binary_pipeline):
    """`| head -c` closes stdout long before a 1 MB family file is out:
    the command exits 1 with nothing on stderr, not a traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(itdpf.__file__).parents[1])}
    writer = subprocess.Popen(
        [sys.executable, "-m", "itdpf", "family",
         "--params", binary_pipeline["params"], "--h", "512",
         "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = subprocess.run(["head", "-c", "10"], stdin=writer.stdout,
                          capture_output=True, timeout=30)
    writer.stdout.close()
    stderr = writer.stderr.read().decode()
    writer.stderr.close()
    assert writer.wait(timeout=30) == 1
    assert head.stdout == b'{"M":1022,'
    assert "Traceback" not in stderr and stderr == ""
