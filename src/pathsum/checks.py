"""The consistency checks that ``pathsum validate`` runs, grouped by scope.

Each scope function recomputes identities the library must satisfy (closed
forms against enumeration, tail-bound containment, reindexing, diffusion
residuals, ensemble identities) and returns one Check per identity, with
the value it measured and the tolerance it held it to. Each scope function
imports the library modules it uses and calls them through their module
attributes, so a caller that rebinds such an attribute sees the call.
"""

from __future__ import annotations

import collections
import math

from .core import PathClass1D, PathClassND, PhysicalParams, debroglie_limit, dimensionless_b

CODATA_HBAR = 1.054571817e-34

Check = collections.namedtuple("Check", "name passed measured tolerance")


def core_checks() -> list[Check]:
    checks = []
    base = PhysicalParams(M=2.0, dx=1.0, dt=1.0, hbar=1.0)
    worst = 0.0
    for factor in (10.0, 1e3, 1e-3):
        scaled = PhysicalParams(M=2.0 * factor, dx=1.0, dt=factor, hbar=1.0)
        worst = max(worst, abs(scaled.b - base.b) / base.b)
    si = PhysicalParams(M=9.1093837015e-31, dx=1e-12, dt=1e-18, hbar=CODATA_HBAR)
    manual = si.M * si.dx * si.dx / (2.0 * si.dt * si.hbar)
    worst = max(worst, abs(dimensionless_b(si) - manual) / manual)
    checks.append(Check("b_rescaling_invariance", worst <= 1e-12, worst, 1e-12))

    distance = 1e-9
    probe = debroglie_limit(si, distance)
    manual_lam = si.hbar * si.dt / (si.M * distance)
    err = abs(probe.wavelength - manual_lam) / manual_lam
    ok = err <= 1e-12 and probe.dx_resolved == (si.dx <= probe.wavelength)
    checks.append(Check("debroglie_identity", ok, err, 1e-12))
    return checks


def combinatorics_checks() -> list[Check]:
    from . import combinatorics

    checks = []
    mismatches = 0
    for m in range(1, 5):
        for j in range(3):
            counted = combinatorics.count_paths_by_flips(1, (m,), m + 2 * j)[(j,)]
            if counted != combinatorics.multiplicity_1d(PathClass1D(m, j)).exact:
                mismatches += 1
    checks.append(Check("counts_1d_match_oracle", mismatches == 0, mismatches, 0))

    mismatches = 0
    for m1 in range(1, 3):
        for m2 in range(0, 3):
            for j in range(2):
                for k in range(2):
                    total = m1 + m2 + 2 * j + 2 * k
                    counted = combinatorics.count_paths_by_flips(2, (m1, m2), total).get(
                        (j, k), 0
                    )
                    expected = combinatorics.multiplicity_2d_full(m1, m2, j, k).exact
                    if counted != expected:
                        mismatches += 1
    checks.append(Check("counts_2d_match_oracle", mismatches == 0, mismatches, 0))

    seqs = combinatorics.enumerate_paths(2, (1, 1), 4)
    counted = sum(combinatorics.count_paths_by_flips(2, (1, 1), 4).values())
    checks.append(
        Check("enumeration_materializes_count", len(seqs) == counted, len(seqs), counted)
    )

    mismatches = 0
    for m1 in range(0, 4):
        for m2 in range(0, 4):
            if m1 + m2 == 0 or m1 == 0:
                continue
            lhs = combinatorics.minimum_distance_count(m1, m2).exact
            rhs = combinatorics.multiplicity_2d_full(m1, m2, 0, 0).exact
            if lhs != rhs:
                mismatches += 1
    checks.append(Check("minimum_distance_identity", mismatches == 0, mismatches, 0))

    ln2 = math.log(2.0)
    gaps = [
        abs(combinatorics.entropy_rate(PathClass1D(2, j)) - ln2) for j in (10, 1000, 100000)
    ]
    ok = gaps[0] > gaps[1] > gaps[2]
    checks.append(Check("entropy_rate_approaches_ln2", ok, gaps[-1], gaps[0]))
    return checks


def kernel_checks() -> list[Check]:
    from . import kernel

    checks = []
    worst = 0.0
    for m1 in (1, 2, 3):
        for b in (0.3, 0.7, 1.5):
            reind = kernel.kernel_sum_2d(b, m1, tol=1e-14).value
            direct = 0.0
            for j in range(60):
                for k in range(60):
                    term = math.exp(-b * (m1 + 2 * j + 2 * k) ** 2)
                    if term == 0.0:
                        break  # the later terms are 0.0 too; direct > 0 stays exact
                    direct += term
            worst = max(worst, abs(reind - direct) / direct)
    checks.append(Check("reindexing_identity_2d", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    floor_ok = True
    for m in (1, 2, 3):
        prev = None
        for i in range(40):
            b = 0.05 + i * (2.0 - 0.05) / 39
            res = kernel.kernel_sum_1d(b, m)
            refined = kernel.kernel_sum_1d(b, m, tol=1e-15)
            low = res.value - 1e-13 * res.value
            high = res.value + res.truncation_bound + 1e-13 * res.value
            if not (low <= refined.value <= high):
                worst = max(worst, 1.0)
            ratio = res.value / kernel._gauss_term(b, m)
            if ratio < 1.0:
                floor_ok = False
            if prev is not None and ratio > prev + 1e-15:
                floor_ok = False
            prev = ratio
    checks.append(Check("tail_bound_containment", worst == 0.0, worst, 0))
    checks.append(Check("ratio_floor_and_monotone", floor_ok, 0.0 if floor_ok else 1.0, 0))

    params = PhysicalParams(M=1.0, dx=1.0, dt=1.0, hbar=1.0)
    resid = kernel.heat_residual(params, 0.7, 1.0, 1e-3)
    resid_half = kernel.heat_residual(params, 0.7, 1.0, 5e-4)
    order = math.log2(resid / resid_half)
    checks.append(Check("heat_residual_small", resid <= 1e-6, resid, 1e-6))
    checks.append(Check("heat_stencil_second_order", abs(order - 2.0) <= 0.5, order, 2.0))

    norm = kernel.propagator_normalization(params, 1.0)
    checks.append(Check("propagator_normalized", abs(norm - 1.0) <= 1e-9, abs(norm - 1.0), 1e-9))

    cls = PathClass1D(2, 3)
    via_action = kernel.action_1d(params, cls) / params.hbar
    via_b = dimensionless_b(params) * cls.n_steps**2
    err = abs(via_action - via_b) / via_b
    checks.append(Check("action_matches_b_route", err <= 1e-12, err, 1e-12))
    return checks


def stats_checks() -> list[Check]:
    from . import stats

    checks = []
    worst = 0.0
    last_p0 = 0.0
    increasing = True
    for m in (2, 5, 10, 50, 100):
        table = stats.probability_1d(m)
        total = math.fsum(entry.probability for entry in table.entries)
        worst = max(worst, abs(total - 1.0))
        p0 = table.entries[0].probability
        if p0 <= last_p0:
            increasing = False
        last_p0 = p0
    checks.append(Check("tables_normalized", worst <= 1e-10, worst, 1e-10))
    checks.append(Check("p0_increases_with_m", increasing, last_p0, 0.989))

    mismatches = 0
    for m in range(1, 8):
        for j in range(0, 8):
            triple = stats.moments_1d(PathClass1D(m, j), 1)
            if triple.mean_square - triple.mean**2 != triple.variance:
                mismatches += 1
    checks.append(Check("variance_identity_exact", mismatches == 0, mismatches, 0))

    probe = stats.alt_divergence_probe(2, target=1.5, j_cap=10**4)
    checks.append(
        Check(
            "alt_weighting_diverges",
            probe.crossed,
            probe.crossing_j if probe.crossed else -1,
            10**4,
        )
    )

    table = stats.probability_2d(1)
    repeat = stats.probability_2d(1)
    same = all(
        a.probability == b.probability for a, b in zip(table.entries, repeat.entries)
    )
    checks.append(Check("prob2d_deterministic", same, 0.0 if same else 1.0, 0))

    one_d = stats.probability_1d(2)
    two_d = stats.probability_2d(2)
    w0 = next(e.weight for e in two_d.entries if e.index == (1, 0))
    err = abs(float(w0) - float(one_d.entries[1].weight))
    checks.append(Check("k0_column_matches_1d_weights", err == 0.0, err, 0))
    return checks


def ensemble_checks() -> list[Check]:
    from . import combinatorics, ensemble, stats

    checks = []
    worst = 0.0
    for m in range(1, 6):
        for j in range(1, 6):
            ens = ensemble.SpinEnsemble1D.from_path_class(PathClass1D(m, j), 1.3)
            x = ens.beta * ens.E
            n = ens.n_spins
            worst = max(worst, abs(math.tanh(x) - m / n))
            worst = max(worst, abs(math.cosh(x) - n / (2.0 * math.sqrt(j * (m + j)))))
            s_closed = ensemble.ensemble_entropy_large_n(ens)
            s_standard = ensemble.two_level_entropy(n, x)
            worst = max(worst, abs(s_closed - s_standard) / s_standard)
    checks.append(Check("temperature_identities", worst <= 1e-12, worst, 1e-12))

    rels = []
    for n in (100, 10**4):
        j = (n - 2) // 2
        ens = ensemble.SpinEnsemble1D.from_path_class(PathClass1D(2, j), 1.0)
        s = ensemble.ensemble_entropy_large_n(ens)
        ln_w = combinatorics.multiplicity_1d(PathClass1D(2, j)).log_value
        rels.append(abs(s - ln_w) / ln_w)
    ok = rels[-1] <= 0.01 and rels[-1] < rels[0]
    checks.append(Check("stirling_entropy_1d", ok, rels[-1], 0.01))

    ens2 = ensemble.SpinEnsemble2D.from_path_class(PathClassND(200, 100, 100), 1.0, 1.0)
    s2 = ensemble.ensemble_entropy_2d(ens2)
    ln_w2 = combinatorics.multiplicity_2d_rotated(PathClassND(200, 100, 100)).log_value
    rel2 = abs(s2 - ln_w2) / ln_w2
    checks.append(Check("stirling_entropy_2d", rel2 <= 0.02, rel2, 0.02))

    ens = ensemble.SpinEnsemble1D.from_path_class(PathClass1D(3, 2), 0.7)
    mom_e = ensemble.energy_moments(ens)
    mom_x = stats.moments_1d(PathClass1D(3, 2), 0.7)
    mirror = (
        mom_e.mean == mom_x.mean
        and mom_e.mean_square == mom_x.mean_square
        and mom_e.variance == mom_x.variance
    )
    checks.append(Check("moment_mirror", mirror, 0.0 if mirror else 1.0, 0))

    ens0 = ensemble.SpinEnsemble1D.from_path_class(PathClass1D(2, 0), 1.0)
    ok = (
        math.isinf(ens0.beta)
        and math.isinf(ensemble.partition_1d(ens0.beta, ens0.E))
        and ensemble.ensemble_entropy_large_n(ens0) == 0.0
    )
    checks.append(Check("ordered_case_conventions", ok, 0.0 if ok else 1.0, 0))

    worst = 0.0
    for x in (20.0, 25.0, 30.0):
        z = ensemble.partition_1d(x, 1.0)
        worst = max(worst, abs(z - math.exp(x)) / math.exp(x))
    checks.append(Check("classical_limit_float", worst <= 1e-15, worst, 1e-15))

    ens2 = ensemble.SpinEnsemble2D.from_path_class(PathClassND(2, 1, 1), 1.0, 1.0)
    log_z = ensemble.combined_partition_2d(ens2)
    n1, n2 = ens2.n_species1, ens2.n_species2
    direct = (
        ensemble.partition_1d(ens2.beta1, ens2.E1) ** n1
        * ensemble.partition_1d(ens2.beta2, ens2.E2) ** n2
    )
    err = abs(math.exp(log_z - ensemble.mixing_log_count(n1, n2)) - direct) / direct
    ok = err <= 1e-10 and ensemble.restriction_check(ens2)
    checks.append(Check("combined_partition_consistent", ok, err, 1e-10))
    return checks


SCOPES = {
    "core": core_checks,
    "combinatorics": combinatorics_checks,
    "kernel": kernel_checks,
    "stats": stats_checks,
    "ensemble": ensemble_checks,
}
