import math
import tracemalloc

import numpy as np
import pytest

from spinmetro import fisher
from spinmetro.fisher import (EigenvalueCrossingError, Povm, ProbabilityModel,
                              bound_heisenberg, bound_shot_noise,
                              fisher_information, fisher_lower_bound_moment,
                              fisher_scan, optimal_axis, povm_number_counting,
                              povm_probe_projection, qfi_family,
                              qfi_mixed, qfi_pure, qfi_unitary, sld)
from spinmetro.linalg import NumericalError, dagger, expm_generator, max_abs
from spinmetro.spins import SpinAxis, SpinSpace, op_j, op_jx, op_jz
from spinmetro.states import (MixedState, PureState, coherent_spin, fock,
                              mix, noon, spin_polarized, twin_fock)


def random_pure(rng, space):
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return PureState(space, amp / np.linalg.norm(amp))


def random_mixed(rng, space, rank):
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = sum(w * random_pure(rng, space).density_matrix() for w in weights)
    return MixedState(space, rho)


def random_axis(rng):
    v = rng.normal(size=3)
    return SpinAxis(tuple(v / np.linalg.norm(v)))


def random_projective_povm(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    elements = tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(dim))
    return Povm(labels=tuple(range(dim)), elements=elements)


class TestPovms:
    def test_number_counting_single_qubit(self):
        povm = povm_number_counting(SpinSpace(1))
        assert max_abs(povm.elements[0] - np.diag([1.0, 0.0])) == 0.0
        assert max_abs(povm.elements[1] - np.diag([0.0, 1.0])) == 0.0

    def test_number_counting_completeness(self):
        povm = povm_number_counting(SpinSpace(4))
        assert len(povm) == 5
        total = sum(povm.elements)
        assert max_abs(total - np.eye(5)) < 1e-14

    def test_probe_projection_up(self):
        probe = fock(SpinSpace(1), 0.5)
        povm = povm_probe_projection(probe)
        assert max_abs(povm.elements[0] - np.diag([0.0, 1.0])) < 1e-14
        assert max_abs(povm.elements[1] - np.diag([1.0, 0.0])) < 1e-14

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="identity"):
            Povm(labels=("a",), elements=(np.diag([1.0, 0.0]),))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive"):
            Povm(labels=("a", "b"),
                 elements=(np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))


class TestProbabilities:
    def test_point_mass_at_zero(self):
        space = SpinSpace(4)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        p = model.probabilities(0.0)
        assert p[space.index_of(1.0)] == pytest.approx(1.0, abs=1e-14)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_closed_forms(self):
        # probe |1,+1>, y rotation, number counting:
        # P(+1) = cos^4(t/2), P(0) = sin^2(t)/2, P(-1) = sin^4(t/2)
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        for t in (0.2, 0.9, 2.4):
            p = model.probabilities(t)
            assert p[2] == pytest.approx(math.cos(t / 2) ** 4, abs=1e-12)
            assert p[1] == pytest.approx(math.sin(t) ** 2 / 2, abs=1e-12)
            assert p[0] == pytest.approx(math.sin(t / 2) ** 4, abs=1e-12)

    def test_probabilities_sum_to_one_random(self, rng):
        for _ in range(10):
            space = SpinSpace(int(rng.integers(1, 7)))
            model = ProbabilityModel(random_pure(rng, space), random_axis(rng),
                                     povm_number_counting(space))
            p = model.probabilities(float(rng.normal()))
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(p >= 0)

    def test_separable_probe_projection_law(self):
        # equator product state: P(probe|theta) = cos^{2N}(theta/2) under Jz
        space = SpinSpace(8)
        probe = coherent_spin(space, math.pi / 2)
        model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
        for t in np.linspace(0.0, 2.0, 9):
            assert model.probabilities(t)[0] == pytest.approx(
                math.cos(t / 2) ** 16, abs=1e-12)

    def test_noon_probe_projection_law(self):
        space = SpinSpace(10)
        probe = noon(space)
        model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
        for t in np.linspace(0.0, 1.0, 7):
            assert model.probabilities(t)[0] == pytest.approx(
                math.cos(5 * t) ** 2, abs=1e-12)


class TestDerivatives:
    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(8):
            space = SpinSpace(int(rng.integers(1, 7)))
            model = ProbabilityModel(random_pure(rng, space), random_axis(rng),
                                     povm_number_counting(space))
            t = float(rng.normal())
            dp = model.derivatives(t)
            fd = (model.probabilities(t + h) - model.probabilities(t - h)) / (2 * h)
            assert max_abs(dp - fd) < 1e-6

    def test_derivatives_sum_to_zero(self, rng):
        space = SpinSpace(5)
        model = ProbabilityModel(random_pure(rng, space), "y",
                                 povm_number_counting(space))
        assert abs(model.derivatives(0.37).sum()) < 1e-10

    def test_zero_at_probability_maximum(self):
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        # P(+1) = cos^4(t/2) is maximal at t = 0
        assert abs(model.derivatives(0.0)[2]) < 1e-12

    def test_noon_projection_derivative_closed_form(self):
        space = SpinSpace(6)
        probe = noon(space)
        model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
        n = 6
        for t in (0.05, 0.4, 1.3):
            expected = -n * math.cos(n * t / 2) * math.sin(n * t / 2)
            assert model.derivatives(t)[0] == pytest.approx(expected, abs=1e-11)


class TestFisherInformation:
    def test_polarized_probe_constant_n(self):
        space = SpinSpace(10)
        model = ProbabilityModel(spin_polarized(space), "y",
                                 povm_number_counting(space))
        for t in (0.1, 0.5, 1.0, 2.0):
            assert fisher_information(model, t).fi == pytest.approx(10.0, abs=1e-8)

    def test_twin_fock_value(self):
        space = SpinSpace(10)
        model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
        for t in (0.3, 0.7):
            assert fisher_information(model, t).fi == pytest.approx(60.0, abs=1e-6)

    def test_ghz_projection_value(self):
        space = SpinSpace(8)
        probe = noon(space)
        model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
        for t in (1e-3, 0.2, 0.6):
            assert fisher_information(model, t).fi == pytest.approx(64.0, abs=1e-4)

    def test_report_contributions_sum(self, rng):
        space = SpinSpace(4)
        model = ProbabilityModel(random_pure(rng, space), "x",
                                 povm_number_counting(space))
        rep = fisher_information(model, 0.9)
        assert rep.fi == pytest.approx(float(rep.contributions.sum()), abs=1e-12)

    def test_hand_built_report_that_does_not_sum_raises_value_error(self):
        with pytest.raises(ValueError, match="does not match the sum"):
            fisher.FisherReport(theta=0.1, fi=1.0, labels=(0, 1),
                                contributions=np.array([0.25, 0.25]))

    def test_periodicity_under_two_pi(self, rng):
        space = SpinSpace(3)
        model = ProbabilityModel(random_pure(rng, space), "y",
                                 povm_number_counting(space))
        f1 = fisher_information(model, 0.4).fi
        f2 = fisher_information(model, 0.4 + 2 * math.pi).fi
        assert f1 == pytest.approx(f2, abs=1e-8)

    def test_degenerate_point_is_flagged(self):
        space = SpinSpace(4)
        model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
        rep = fisher_information(model, 0.0)
        assert rep.flagged  # zero-probability outcomes at the symmetric point

    def test_limit_and_excluded_outcomes_near_a_zero_of_p(self):
        # |j, j> rotated by 1e-7 about y: P(mu = -1) ~ 1e-30 with dP ~ 1e-22 is
        # excluded, P(mu = 0) ~ 5e-15 with dP ~ 1e-7 keeps (dP)^2/P, which is N = 2
        space = SpinSpace(2)
        model = ProbabilityModel(spin_polarized(space), "y", povm_number_counting(space))
        rep = fisher_information(model, 1e-7)
        assert rep.flagged == ((-1.0, "excluded"), (0.0, "limit"))
        assert rep.fi == pytest.approx(2.0, rel=1e-12)


def _tiny_numbers(a):
    """Nonzero real numbers (parts of complex entries) below sqrt(tiny) in magnitude."""
    v = np.ascontiguousarray(a).view(float) if np.iscomplexobj(a) else a
    return int(np.count_nonzero((v != 0) & (np.abs(v) < math.sqrt(np.finfo(float).tiny))))


def test_probe_columns_keep_no_tiny_numbers(monkeypatch):
    # NOON projection about an oblique axis at N = 1000: W^T applied to the probe
    # leaves 253 numbers below sqrt(tiny), 20 of them subnormal, in its one column.
    # Each lies within the rounding bound dim u of its own product, so the model sets
    # it to 0, with every other such part, and keeps only the components left nonzero
    space = SpinSpace(1000)
    axis = (0.3, -0.5, 0.8)
    probe = noon(space)
    model = ProbabilityModel(probe, axis, povm_probe_projection(probe))
    assert _tiny_numbers(model._probe_columns) == 0
    monkeypatch.setattr(fisher, "_UNIT_ROUNDOFF", 0.0)  # keeps every nonzero part
    kept = ProbabilityModel(probe, axis, povm_probe_projection(probe))
    assert _tiny_numbers(kept._probe_columns) == 253
    assert kept._support.size == space.dim > 2 * model._support.size
    thetas = np.linspace(0.0, 1.4, 9)
    # the derived bound: the parts set to 0 in the column and in the row g of G move
    # the amplitude g x by delta = 2 sqrt(2 dim) dim u and the residual x - g^dag g x by
    # 2 delta, and their derivatives by j times that; so P (|a|^2 and the residual's
    # norm) moves by at most 4 delta (1 + delta) and dP by 8 j delta (1 + delta)
    delta = 2 * math.sqrt(2 * space.dim) * space.dim * np.finfo(float).eps / 2
    restricted, unrestricted = model._tables(thetas, 1), kept._tables(thetas, 1)
    assert max_abs(restricted[0] - unrestricted[0]) <= 4 * delta * (1 + delta)
    assert max_abs(restricted[1] - unrestricted[1]) <= 8 * space.j * delta * (1 + delta)


def _scan_model(kind, n):
    space = SpinSpace(n)
    counting = povm_number_counting(space)
    if kind == "css":
        return ProbabilityModel(coherent_spin(space, math.pi / 2), "y", counting)
    if kind == "twin-fock":
        return ProbabilityModel(twin_fock(space), "y", counting)
    if kind == "noon-projection":
        probe = noon(space)
        return ProbabilityModel(probe, "z", povm_probe_projection(probe))
    return ProbabilityModel(mix([(0.5, noon(space)), (0.5, twin_fock(space))]), "y", counting)


def _assert_scan_matches_reports(model, thetas):
    fi, flagged = fisher_scan(model, thetas)
    reports = [fisher_information(model, float(t)) for t in thetas]
    ref = np.array([r.fi for r in reports])
    scale = max(1.0, float(ref.max()))
    np.testing.assert_allclose(fi, ref, rtol=1e-12, atol=1e-12 * scale)
    assert flagged.tolist() == [len(r.flagged) for r in reports]
    return flagged, reports


class TestFisherScan:
    """fisher_scan: per-theta fisher_information over a grid, in blocked kernel passes."""

    # at N = 250, up to 250 of the 251 counting outcomes are flagged on these grids
    @pytest.mark.parametrize("kind, n, thetas", [
        ("css", 250, [0.0, 0.1, 0.45, 0.8, 1.2, 1.4, math.pi / 2]),
        ("twin-fock", 250, [0.0, 0.1, 0.45, 0.8, 1.2, 1.4, math.pi / 2]),
        # 1e-9 pi/N leaves the complement at P ~ 2.5e-18: a "limit" flag
        ("noon-projection", 40, [0.0, 1e-9 * math.pi / 40, 0.3 * math.pi / 40,
                                 math.pi / 40]),
        ("mix", 40, [0.0, 0.2, 0.7, 1.3]),
    ])
    def test_rows_equal_fisher_information(self, kind, n, thetas):
        flagged, reports = _assert_scan_matches_reports(_scan_model(kind, n), thetas)
        assert flagged.dtype.kind == "i" and flagged.max() > 0
        if kind == "noon-projection":
            assert reports[1].flagged == (("orthogonal", "limit"),)

    def test_grid_across_block_boundaries(self, monkeypatch):
        model = _scan_model("twin-fock", 20)
        thetas = np.linspace(0.0, 1.4, 23)
        whole = fisher_scan(model, thetas)
        # 21 * 3 elements per block: 3 angles, so the grid spans 8 blocks, the last short;
        # the 21 amplitudes per angle outnumber the 11 components of the support
        monkeypatch.setattr(fisher, "_TABLE_BLOCK", 3 * model.space.dim)
        assert model._support.size == 11
        assert len(list(fisher._angle_blocks(thetas.size, model._width))) == 8
        blocked = fisher_scan(model, thetas)
        _assert_scan_matches_reports(model, thetas)
        np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-12, atol=1e-12 * 20**2)
        assert np.array_equal(blocked[1], whole[1])

    def test_projection_blocks_are_sized_by_the_support(self, monkeypatch):
        # one listed amplitude per angle against 41 components of the support
        space = SpinSpace(40)
        probe = noon(space)
        model = ProbabilityModel(probe, (0.3, -0.5, 0.8), povm_probe_projection(probe))
        assert model._width == model._support.size == space.dim
        thetas = np.linspace(0.0, 1.4, 11)
        whole = fisher_scan(model, thetas)
        monkeypatch.setattr(fisher, "_TABLE_BLOCK", 3 * space.dim)
        assert len(list(fisher._angle_blocks(thetas.size, model._width))) == 4
        blocked = fisher_scan(model, thetas)
        np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-12, atol=1e-12 * 40**2)
        assert np.array_equal(blocked[1], whole[1])

    def test_memory_does_not_grow_with_the_grid(self, monkeypatch):
        model = _scan_model("css", 200)
        monkeypatch.setattr(fisher, "_TABLE_BLOCK", 64 * model.space.dim)
        peaks = []
        for points in (64, 640):  # one block, ten blocks
            thetas = np.linspace(0.05, 1.45, points)
            assert len(list(fisher._angle_blocks(points, model._width))) == points // 64
            tracemalloc.start()
            try:
                fisher_scan(model, thetas)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_empty_grid(self):
        fi, flagged = fisher_scan(_scan_model("css", 6), [])
        assert fi.shape == flagged.shape == (0,)

    def test_nan_angle_raises_like_a_single_theta(self):
        model = _scan_model("css", 10)
        with pytest.raises(NumericalError, match="normalise"):
            fisher_information(model, math.nan)
        with pytest.raises(NumericalError, match="normalise"):
            fisher_scan(model, [0.1, math.nan, 0.5])


class TestQfi:
    def test_noon_saturates_heisenberg(self):
        assert qfi_pure(noon(SpinSpace(10)), "z") == pytest.approx(100.0, abs=1e-9)

    def test_polarized_shot_noise(self):
        assert qfi_pure(spin_polarized(SpinSpace(10)), "y") == pytest.approx(10.0, abs=1e-9)

    def test_twin_fock_value(self):
        assert qfi_pure(twin_fock(SpinSpace(10)), "y") == pytest.approx(60.0, abs=1e-8)

    def test_rank_one_mixed_equals_pure(self, rng):
        space = SpinSpace(4)
        psi = random_pure(rng, space)
        rho = MixedState(space, psi.density_matrix())
        axis = random_axis(rng)
        assert qfi_mixed(rho, axis) == pytest.approx(qfi_pure(psi, axis), abs=1e-10)

    def test_maximally_mixed_is_zero(self):
        space = SpinSpace(1)
        rho = MixedState(space, np.eye(2) / 2)
        assert qfi_mixed(rho, "x") == pytest.approx(0.0, abs=1e-12)

    def test_mixed_vs_sld_route(self):
        space = SpinSpace(4)
        state = mix([(0.5, noon(space)), (0.5, fock(space, 0.0))])
        value = qfi_mixed(state, "z")
        l0 = sld(state, "z")
        assert value == pytest.approx(
            float(np.trace(state.rho @ l0 @ l0).real), abs=1e-9)

    def test_bounded_by_four_variance(self, rng):
        from spinmetro.states import variance
        for _ in range(20):
            space = SpinSpace(int(rng.integers(2, 7)))
            state = random_mixed(rng, space, rank=int(rng.integers(2, 4)))
            axis = random_axis(rng)
            assert qfi_mixed(state, axis) <= 4.0 * variance(
                state, op_j(space, axis)) + 1e-9

    def test_convexity(self, rng):
        for _ in range(20):
            space = SpinSpace(int(rng.integers(1, 6)))
            s1 = random_mixed(rng, space, 2)
            s2 = random_mixed(rng, space, 2)
            g = float(rng.uniform(0.05, 0.95))
            axis = random_axis(rng)
            mixed = mix([(g, s1), (1.0 - g, s2)])
            assert qfi_mixed(mixed, axis) <= (
                g * qfi_mixed(s1, axis) + (1 - g) * qfi_mixed(s2, axis) + 1e-9)

    def test_additivity_two_qubits(self, rng):
        # dim-4 tensor construction, bypassing the symmetric subspace
        sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
        sy = np.array([[0, -1j], [1j, 0]]) / 2
        sz = np.diag([1.0, -1.0]).astype(complex) / 2
        for _ in range(10):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            h1 = n[0] * sx + n[1] * sy + n[2] * sz
            rhos = []
            for _k in range(2):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                r = a @ dagger(a)
                rhos.append(r / np.trace(r).real)
            joint = np.kron(rhos[0], rhos[1])
            h = np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h1)
            total = qfi_unitary(joint, h)
            parts = qfi_unitary(rhos[0], h1) + qfi_unitary(rhos[1], h1)
            assert total == pytest.approx(parts, abs=1e-9)

    def test_separable_ceiling_coherent(self, rng):
        space = SpinSpace(9)
        for _ in range(30):
            probe = coherent_spin(space, float(rng.uniform(0, math.pi)),
                                  float(rng.uniform(0, 2 * math.pi)))
            assert qfi_pure(probe, random_axis(rng)) <= 9.0 + 1e-9


class TestSld:
    def test_pure_state_formula(self, rng):
        space = SpinSpace(3)
        psi = random_pure(rng, space)
        h = op_j(space, "y")
        proj = psi.density_matrix()
        expected = 2j * (proj @ h - h @ proj)
        assert max_abs(sld(psi, "y") - expected) < 1e-9

    def test_maximally_mixed_is_zero_operator(self):
        space = SpinSpace(2)
        rho = MixedState(space, np.eye(3) / 3)
        assert max_abs(sld(rho, "x")) < 1e-12

    def test_defining_equation_on_supported_block(self, rng):
        for _ in range(10):
            space = SpinSpace(int(rng.integers(2, 7)))
            state = random_mixed(rng, space, 2)
            axis = random_axis(rng)
            h = op_j(space, axis)
            l0 = sld(state, axis)
            residual = (state.rho @ l0 + l0 @ state.rho) - 2j * (state.rho @ h - h @ state.rho)
            dec = state.spectrum
            r_eig = dagger(dec.eigenvectors) @ residual @ dec.eigenvectors
            p = dec.eigenvalues
            supported = (p[:, None] + p[None, :]) > 1e-12
            assert max_abs(r_eig[supported]) < 1e-8

    def test_trace_conditions(self, rng):
        space = SpinSpace(5)
        state = random_mixed(rng, space, 3)
        axis = random_axis(rng)
        l0 = sld(state, axis)
        assert abs(np.trace(state.rho @ l0)) < 1e-10
        assert float(np.trace(state.rho @ l0 @ l0).real) == pytest.approx(
            qfi_mixed(state, axis), abs=1e-9)


def unitary_family(state0, generator):
    def family(theta):
        u = expm_generator(generator, theta)
        return MixedState(state0.space, u @ state0.density_matrix() @ dagger(u))
    return family


class TestQfiFamily:
    def test_unitary_noon_family(self):
        space = SpinSpace(6)
        family = unitary_family(noon(space), op_jz(space))
        assert qfi_family(family, 0.3) == pytest.approx(36.0, abs=1e-6)

    def test_constant_family_is_zero(self):
        space = SpinSpace(3)
        state = mix([(0.6, fock(space, 1.5)), (0.4, fock(space, -0.5))])

        def family(_theta):
            return state

        assert qfi_family(family, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_mixed_family_matches_qfi_mixed(self, rng):
        space = SpinSpace(4)
        state = random_mixed(rng, space, 3)
        axis = random_axis(rng)
        family = unitary_family(state, op_j(space, axis))
        assert qfi_family(family, 0.7) == pytest.approx(
            qfi_mixed(state, axis), abs=1e-6)

    def test_pure_non_unitary_family(self):
        # psi(t) = cos t |0> + sin t |2>: QFI = 4(<dpsi|dpsi> - |<psi|dpsi>|^2) = 4
        space = SpinSpace(2)

        def family(theta):
            amp = np.array([math.cos(theta), 0.0, math.sin(theta)], dtype=complex)
            return MixedState(space, np.outer(amp, amp.conj()))

        assert qfi_family(family, 0.4) == pytest.approx(4.0, abs=1e-6)

    def test_eigenvalue_crossing_diagnostic(self):
        space = SpinSpace(2)
        step = 1e-5

        def family(theta):
            # fixed eigenvectors, eigenvalues crossing at theta = 0
            return MixedState(space, np.diag([0.3 + theta, 0.3 - theta, 0.4]).astype(complex))

        with pytest.raises(EigenvalueCrossingError) as info:
            qfi_family(family, 0.5 * step, step=step)
        assert isinstance(info.value, NumericalError)


class TestBounds:
    def test_values_n100(self):
        assert bound_shot_noise(100, 1) == pytest.approx(0.1)
        assert bound_heisenberg(100, 1) == pytest.approx(0.01)

    def test_m_scaling(self):
        assert bound_shot_noise(100, 4) == pytest.approx(bound_shot_noise(100, 1) / 2)
        assert bound_heisenberg(100, 4) == pytest.approx(bound_heisenberg(100, 1) / 2)

    def test_equal_at_single_particle(self):
        assert bound_shot_noise(1, 3) == bound_heisenberg(1, 3)

    def test_h_range_and_validation(self):
        with pytest.raises(ValueError):
            bound_shot_noise(0, 1)


class TestMomentLowerBound:
    def test_coherent_equator_tight_at_zero(self):
        space = SpinSpace(12)
        probe = coherent_spin(space, math.pi / 2)
        model = ProbabilityModel(probe, "y", povm_number_counting(space))
        bound = fisher_lower_bound_moment(model, 0.0, op_jz(space))
        assert bound == pytest.approx(12.0, abs=1e-9)
        assert bound <= fisher_information(model, 0.0).fi + 1e-9

    def test_commuting_observable_gives_zero(self):
        space = SpinSpace(4)
        probe = coherent_spin(space, math.pi / 2)
        model = ProbabilityModel(probe, "z", povm_number_counting(space))
        assert fisher_lower_bound_moment(model, 0.3, op_jz(space)) == pytest.approx(
            0.0, abs=1e-12)

    def test_never_exceeds_fisher(self, rng):
        space = SpinSpace(6)
        for _ in range(20):
            probe = random_pure(rng, space)
            model = ProbabilityModel(probe, random_axis(rng),
                                     povm_number_counting(space))
            t = float(rng.uniform(-1.5, 1.5))
            try:
                bound = fisher_lower_bound_moment(model, t, op_jz(space))
            except ValueError:
                continue
            assert bound <= fisher_information(model, t).fi + 1e-9

    def test_spin_squeezing_correspondence(self):
        # bound with M = J_z about a transverse axis reproduces N / xi_R^2
        from spinmetro.entanglement import squeezing
        from spinmetro.linalg import expm_generator

        space = SpinSpace(8)
        jz = op_jz(space)
        twist = expm_generator(jz @ jz, 0.12)
        amp = twist @ coherent_spin(space, math.pi / 2).amplitudes
        probe = PureState(space, amp / np.linalg.norm(amp))
        model = ProbabilityModel(probe, "y", povm_number_counting(space))
        bound = fisher_lower_bound_moment(model, 0.0, jz)
        report = squeezing(probe, ("z", "y", "x"))
        assert bound == pytest.approx(
            space.n_particles / report.xi_r_squared, abs=1e-9)

    def test_rejects_non_diagonal_observable(self):
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        with pytest.raises(ValueError, match="diagonal"):
            fisher_lower_bound_moment(model, 0.3, op_jx(space))

    def test_zero_variance_undefined(self):
        space = SpinSpace(2)
        model = ProbabilityModel(fock(space, 1.0), "y", povm_number_counting(space))
        with pytest.raises(ValueError, match="variance"):
            fisher_lower_bound_moment(model, 0.0, np.eye(3, dtype=complex))


class TestOptimalAxis:
    def test_noon_picks_z(self):
        axis, value = optimal_axis(noon(SpinSpace(10)))
        assert value == pytest.approx(100.0, abs=1e-9)
        assert abs(axis.vector[2]) == pytest.approx(1.0, abs=1e-9)

    def test_polarized_picks_equator(self):
        axis, value = optimal_axis(spin_polarized(SpinSpace(10)))
        assert value == pytest.approx(10.0, abs=1e-9)
        assert abs(axis.vector[2]) < 1e-9

    def test_maximally_mixed_zero(self):
        space = SpinSpace(2)
        axis, value = optimal_axis(MixedState(space, np.eye(3) / 3))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_beats_random_axes(self, rng):
        for _ in range(5):
            space = SpinSpace(int(rng.integers(2, 6)))
            state = random_mixed(rng, space, 2)
            _axis, value = optimal_axis(state)
            for _k in range(20):
                assert value >= qfi_mixed(state, random_axis(rng)) - 1e-9

    def test_optimum_attained_at_returned_axis(self, rng):
        space = SpinSpace(4)
        state = random_mixed(rng, space, 3)
        axis, value = optimal_axis(state)
        assert qfi_mixed(state, axis) == pytest.approx(value, abs=1e-9)


class TestBoundChain:
    def test_f_below_qfi_random_models(self, rng):
        from spinmetro.states import variance
        for _ in range(25):
            space = SpinSpace(int(rng.integers(1, 6)))
            probe = random_pure(rng, space)
            axis = random_axis(rng)
            povm = random_projective_povm(rng, space.dim)
            model = ProbabilityModel(probe, axis, povm)
            t = float(rng.uniform(-2.0, 2.0))
            f = fisher_information(model, t).fi
            fq = qfi_pure(probe, axis)
            assert f <= fq + 1e-9
            assert fq == pytest.approx(
                4.0 * variance(probe, op_j(space, axis)), abs=1e-9)
