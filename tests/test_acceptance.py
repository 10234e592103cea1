"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.  Desk scale throughout (N <= 100, m <= 1e4, trials <= 5000).
"""

import io
import math

import numpy as np

from spinmetro.entanglement import (entanglement_depth, squeezing,
                                    squeezing_fisher_check,
                                    write_staircase_csv)
from spinmetro.estimation import (bayes_posterior, bayes_variance_bound,
                                  mle_monte_carlo, moments_monte_carlo,
                                  posterior_summaries, sample)
from spinmetro.fisher import (Povm, ProbabilityModel, fisher_information,
                              povm_number_counting, povm_probe_projection,
                              qfi_mixed, qfi_pure, qfi_unitary, sld)
from spinmetro.linalg import dagger, max_abs
from spinmetro.spins import (SpinAxis, SpinSpace, mach_zehnder, op_j,
                             rotation, wigner_d_matrix)
from spinmetro.states import (MixedState, PureState, coherent_spin, mix, noon,
                              spin_polarized, twin_fock, variance)


def criterion(num, description, ok, detail=""):
    line = f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def random_axis(rng):
    v = rng.normal(size=3)
    return SpinAxis(tuple(v / np.linalg.norm(v)))


def random_pure(rng, space):
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return PureState(space, amp / np.linalg.norm(amp))


def random_mixed(rng, space, rank):
    w = rng.random(rank)
    w /= w.sum()
    rho = sum(wi * random_pure(rng, space).density_matrix() for wi in w)
    return MixedState(space, rho)


def test_c01_noon_saturation():
    space = SpinSpace(10)
    probe = noon(space)
    q = qfi_pure(probe, "z")
    model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
    f = fisher_information(model, 1e-3).fi
    ok = abs(q - 100.0) < 1e-9 and abs(f - 100.0) < 1e-4
    criterion(1, "NOON saturation: QFI = N^2 and projection FI = N^2",
              ok, f"qfi={q:.12f}, F(1e-3)={f:.8f}")


def test_c02_coherent_state_shot_noise():
    space = SpinSpace(10)
    model = ProbabilityModel(spin_polarized(space), "y",
                             povm_number_counting(space))
    values = {t: fisher_information(model, t).fi for t in (0.1, 0.5, 1.0, 2.0)}
    worst = max(abs(v - 10.0) for v in values.values())
    criterion(2, "polarized probe: number-counting FI = N at four phases",
              worst < 1e-8, f"max |F - 10| = {worst:.2e}")


def test_c03_twin_fock_value():
    space = SpinSpace(10)
    q = qfi_pure(twin_fock(space), "y")
    model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
    f_vals = [fisher_information(model, t).fi for t in (0.3, 0.7)]
    worst_f = max(abs(f - 60.0) for f in f_vals)
    ok = abs(q - 60.0) < 1e-8 and worst_f < 1e-6
    criterion(3, "twin Fock: QFI = N^2/2 + N and counting FI matches",
              ok, f"qfi={q:.10f}, max |F - 60| = {worst_f:.2e}")


def test_c04_ghz_oscillation():
    space = SpinSpace(8)
    ghz = noon(space)
    model = ProbabilityModel(ghz, "z", povm_probe_projection(ghz))
    grid = np.linspace(0.0, 2.0 * math.pi, 100)
    ghz_err = max(abs(model.probabilities(t)[0] - math.cos(4.0 * t) ** 2)
                  for t in grid)
    css = coherent_spin(space, math.pi / 2)
    sep_model = ProbabilityModel(css, "z", povm_probe_projection(css))
    sep_err = max(abs(sep_model.probabilities(t)[0] - math.cos(t / 2) ** 16)
                  for t in grid)
    ok = ghz_err < 1e-10 and sep_err < 1e-10
    criterion(4, "GHZ cos^2(N theta/2) vs separable cos^{2N}(theta/2) laws",
              ok, f"ghz err={ghz_err:.2e}, sep err={sep_err:.2e}")


def test_c05_mle_asymptotic_efficiency():
    space = SpinSpace(1)
    model = ProbabilityModel(spin_polarized(space), "y",
                             povm_number_counting(space))
    report = mle_monte_carlo(model, 0.8, m=400, trials=2000, seed=7,
                             domain=(0.0, math.pi))
    ratio = report.variance / report.crlb
    bias_ok = abs(report.mean - 0.8) < 3.0 * report.stderr
    ok = 0.9 <= ratio <= 1.1 and bias_ok
    criterion(5, "MLE variance within 10% of 1/(mF), bias < 3 stderr",
              ok, f"var/crlb={ratio:.4f}, bias={report.bias:.2e}, "
                  f"3*stderr={3 * report.stderr:.2e}")


def test_c06_bayes_normality():
    space = SpinSpace(1)
    model = ProbabilityModel(spin_polarized(space), "y",
                             povm_number_counting(space))
    post = bayes_posterior(model, sample(model, 0.8, 1000, seed=3)[0],
                           domain=(0.0, math.pi))
    var = posterior_summaries(post).variance
    bound = bayes_variance_bound(post)
    target = 1.0 / (1000 * fisher_information(model, 0.8).fi)
    ok = abs(var - target) <= 0.15 * target and abs(bound - var) <= 0.15 * var
    criterion(6, "posterior variance ~ 1/(mF) and matches its 1/G bound",
              ok, f"var={var:.3e}, 1/(mF)={target:.3e}, bound={bound:.3e}")


def test_c07_method_of_moments():
    space = SpinSpace(20)
    model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                             povm_number_counting(space))
    report = moments_monte_carlo(model, 0.6, m=10_000, trials=800, seed=5,
                                 domain=(0.1, 1.2))
    prediction = report.crlb
    spread_ok = abs(report.variance - prediction) <= 0.15 * prediction
    shot_noise = 1.0 / (10_000 * 20)
    prediction_ok = abs(prediction - shot_noise) < 1e-9
    per_trial_ok = max(abs(p - shot_noise)
                       for p in report.variance_predictions) < 1e-9
    ok = spread_ok and prediction_ok and per_trial_ok
    criterion(7, "moment estimator spread matches prediction = 1/(mN)",
              ok, f"spread={report.variance:.3e}, prediction={prediction:.3e}")


def test_c08_bound_chain_suite():
    rng = np.random.default_rng(8101)
    worst_chain = 0.0
    for _ in range(200):
        space = SpinSpace(int(rng.integers(1, 7)))
        probe = random_pure(rng, space)
        axis = random_axis(rng)
        a = rng.normal(size=(space.dim, space.dim)) \
            + 1j * rng.normal(size=(space.dim, space.dim))
        q, _ = np.linalg.qr(a)
        povm = Povm(labels=tuple(range(space.dim)),
                    elements=tuple(np.outer(q[:, k], q[:, k].conj())
                                   for k in range(space.dim)))
        model = ProbabilityModel(probe, axis, povm)
        theta = float(rng.uniform(-2.0, 2.0))
        f = fisher_information(model, theta).fi
        fq = qfi_pure(probe, axis)
        four_var = 4.0 * variance(probe, op_j(space, axis))
        worst_chain = max(worst_chain, f - fq, abs(fq - four_var))
    chain_ok = worst_chain < 1e-9

    worst_convex = 0.0
    for _ in range(200):
        space = SpinSpace(int(rng.integers(1, 6)))
        s1 = random_mixed(rng, space, int(rng.integers(1, 4)))
        s2 = random_mixed(rng, space, int(rng.integers(1, 4)))
        g = float(rng.uniform(0.05, 0.95))
        axis = random_axis(rng)
        lhs = qfi_mixed(mix([(g, s1), (1 - g, s2)]), axis)
        rhs = g * qfi_mixed(s1, axis) + (1 - g) * qfi_mixed(s2, axis)
        worst_convex = max(worst_convex, lhs - rhs)
    convex_ok = worst_convex < 1e-9

    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.diag([1.0, -1.0]).astype(complex) / 2
    worst_add = 0.0
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        h1 = n[0] * sx + n[1] * sy + n[2] * sz
        rhos = []
        for _k in range(2):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            r = a @ dagger(a)
            rhos.append(r / np.trace(r).real)
        h = np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h1)
        total = qfi_unitary(np.kron(rhos[0], rhos[1]), h)
        parts = qfi_unitary(rhos[0], h1) + qfi_unitary(rhos[1], h1)
        worst_add = max(worst_add, abs(total - parts))
    add_ok = worst_add < 1e-9

    ok = chain_ok and convex_ok and add_ok
    criterion(8, "bound chain, QFI convexity, two-qubit additivity",
              ok, f"chain defect={worst_chain:.2e}, convexity defect="
                  f"{worst_convex:.2e}, additivity defect={worst_add:.2e}")


def test_c09_separable_ceiling_and_witness():
    rng = np.random.default_rng(9202)
    space = SpinSpace(14)
    n = space.n_particles
    ceiling_ok = True
    fish_vs_ss_ok = True
    transverse_ok = True
    defined = 0
    for _ in range(200):
        probe = coherent_spin(space, float(rng.uniform(0.0, math.pi)),
                              float(rng.uniform(0.0, 2 * math.pi)))
        a = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(a)
        triple = tuple(SpinAxis(tuple(q[:, k])) for k in range(3))
        if qfi_pure(probe, random_axis(rng)) > n + 1e-9:
            ceiling_ok = False
        check = squeezing_fisher_check(probe, triple)
        if not check.undefined:
            defined += 1
            if not check.holds:
                fish_vs_ss_ok = False
        report = squeezing(probe, triple)
        if report.xi_r_prime_squared is not None \
                and report.xi_r_prime_squared < 1.0 - 1e-9:
            transverse_ok = False
    ok = ceiling_ok and fish_vs_ss_ok and transverse_ok and defined > 100
    criterion(9, "coherent states: F_Q <= N, N/F_Q <= xi_R^2, xi_R'^2 >= 1",
              ok, f"{defined}/200 with defined xi_R^2")


def test_c10_depth_staircase():
    report = entanglement_depth(2500.0, 100)
    bounds = {k: b for k, _s, _r, b in report.bounds}
    monotone = all(report.bounds[i][3] <= report.bounds[i + 1][3]
                   for i in range(99))
    values_ok = (bounds[1] == 100.0 and bounds[25] == 2500.0
                 and bounds[99] == 9802.0 and bounds[100] == 10000.0)
    buf = io.StringIO()
    write_staircase_csv(report, buf)
    lines = buf.getvalue().strip().split("\n")
    csv_ok = (lines[0] == "k,s,r,bound"
              and lines[1] == "1,100,0,100"
              and lines[25] == "25,4,0,2500"
              and lines[99] == "99,1,1,9802"
              and lines[100] == "100,1,0,10000")
    ok = monotone and values_ok and csv_ok
    criterion(10, "N=100 producibility staircase values and CSV export",
              ok, f"bounds {bounds[1]:.0f}/{bounds[25]:.0f}/"
                  f"{bounds[99]:.0f}/{bounds[100]:.0f}")


def test_c11_wigner_kernel():
    grid = np.linspace(0.0, 2.0 * math.pi, 50)
    worst_norm = worst_comp = worst_expm = 0.0
    for two_j in range(1, 21):
        j = two_j / 2.0
        space = SpinSpace(two_j)
        mats = [wigner_d_matrix(j, t) for t in grid]
        for d in mats:
            worst_norm = max(worst_norm, float(np.max(np.abs(
                (d**2).sum(axis=1) - 1.0))))
        for i in (0, 7, 19, 33):
            k = (3 * i + 11) % 50
            comp = mats[i] @ mats[k]
            direct = wigner_d_matrix(j, grid[i] + grid[k])
            worst_comp = max(worst_comp, max_abs(comp - direct))
        for i in range(0, 50, 7):
            u = rotation(space, "y", grid[i])
            worst_expm = max(worst_expm, max_abs(u - mats[i]))
    worst_mz = 0.0
    for n in range(1, 21):
        space = SpinSpace(n)
        for t in (0.0, 0.31, 1.07, 2.9, -1.3):
            worst_mz = max(worst_mz, max_abs(
                mach_zehnder(space, t) - rotation(space, "y", t)))
    ok = (worst_norm < 1e-10 and worst_comp < 1e-9 and worst_expm < 1e-9
          and worst_mz < 1e-10)
    criterion(11, "Wigner-d rows, composition, expm agreement, MZ identity",
              ok, f"norm={worst_norm:.2e}, comp={worst_comp:.2e}, "
                  f"expm={worst_expm:.2e}, mz={worst_mz:.2e}")


def test_c12_sld_residual():
    rng = np.random.default_rng(1212)
    worst_res = worst_qfi = 0.0
    for _ in range(100):
        space = SpinSpace(int(rng.integers(2, 8)))  # dim 3..8
        state = random_mixed(rng, space, int(rng.integers(2, 5)))
        axis = random_axis(rng)
        h = op_j(space, axis)
        l0 = sld(state, axis)
        residual = (state.rho @ l0 + l0 @ state.rho) \
            - 2j * (state.rho @ h - h @ state.rho)
        dec = state.spectrum
        r_eig = dagger(dec.eigenvectors) @ residual @ dec.eigenvectors
        p = dec.eigenvalues
        supported = (p[:, None] + p[None, :]) > 1e-12
        worst_res = max(worst_res, max_abs(r_eig[supported]))
        tr_route = float(np.trace(state.rho @ l0 @ l0).real)
        worst_qfi = max(worst_qfi, abs(tr_route - qfi_mixed(state, axis)))
    ok = worst_res < 1e-8 and worst_qfi < 1e-9
    criterion(12, "SLD defining equation on supported block, Tr[rho L^2] = QFI",
              ok, f"residual={worst_res:.2e}, qfi gap={worst_qfi:.2e}")
