"""In-process h sweep of the dpf and field layers on both fixtures.

Reproduces the ROADMAP baseline table from one call: keygen, per-point
`evaluate_key`, `evaluate_all` per point, key (de)serialization at each
h in SWEEP_H, and one field multiply and power per fixture.  Each
figure is the median of several timed repetitions.  Metric names are
`<metric>.<fixture>.h<h>` and `field.<op>_ns.<fixture>`.
"""

from __future__ import annotations

import random
import statistics
import time

from itdpf.dpf import (PointFunction, deserialize_key, evaluate_all,
                       evaluate_key, keygen, serialize_key)
from itdpf.interpolation import build_scheme
from itdpf.matching import trivial_family
from itdpf.params import build_params

SWEEP_H = (16, 64, 256)
REPS = 7
EVALUATE_ALL_REPS = 3
FIELD_OPS = 20000
FIELD_BATCHES = 5


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _field_ns(params, rng) -> dict[str, float]:
    fld = params.field
    elems = [fld.random_element(rng) for _ in range(FIELD_OPS)]
    pairs = list(zip(elems, reversed(elems)))
    exps = [rng.randrange(params.m) for _ in range(FIELD_OPS)]
    powers = list(zip(elems, exps))

    def muls():
        for a, b in pairs:
            a * b

    def pows():
        for a, e in powers:
            fld.pow(a, e)

    return {"mul_ns": _median_s(muls, FIELD_BATCHES) / FIELD_OPS * 1e9,
            "pow_ns": _median_s(pows, FIELD_BATCHES) / FIELD_OPS * 1e9}


def run_sweep(fixtures: dict, seed: int) -> dict[str, float]:
    """`fixtures` maps a fixture name to (primes, p, realized n)."""
    rng = random.Random(f"sweep/{seed}")
    out = {}
    for name, (primes, p, _) in fixtures.items():
        params = build_params(primes, p)
        scheme = build_scheme(params)
        for op, ns in _field_ns(params, rng).items():
            out[f"field.{op}.{name}"] = ns
        for h in SWEEP_H:
            family = trivial_family(params.M, h)
            func = PointFunction(h, p, rng.randrange(1, h + 1),
                                 rng.randrange(1, p))
            keys = keygen(params, family, scheme, func, rng)
            key = keys[rng.randrange(len(keys))]
            data = serialize_key(params, key)
            x = rng.randrange(1, h + 1)
            tag = f"{name}.h{h}"
            out[f"dpf.keygen_ms.{tag}"] = 1e3 * _median_s(
                lambda: keygen(params, family, scheme, func, rng), REPS)
            out[f"dpf.serialize_key_us.{tag}"] = 1e6 * _median_s(
                lambda: serialize_key(params, key), REPS)
            out[f"dpf.deserialize_key_us.{tag}"] = 1e6 * _median_s(
                lambda: deserialize_key(params, scheme.n, data), REPS)
            out[f"dpf.evaluate_key_us.{tag}"] = 1e6 * _median_s(
                lambda: evaluate_key(params, family, scheme, key, x), REPS)
            out[f"dpf.evaluate_all_us_per_point.{tag}"] = 1e6 / h * _median_s(
                lambda: evaluate_all(params, family, scheme, key),
                EVALUATE_ALL_REPS)
    return out
