import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmetro.entanglement import (entanglement_depth, k_bound, squeezing,
                                    squeezing_fisher_check,
                                    useful_entanglement, write_staircase_csv)
from spinmetro.fisher import qfi, qfi_pure
from spinmetro.spins import SpinAxis, SpinSpace
from spinmetro.states import PureState, coherent_spin, mix, noon, twin_fock


def random_triple(rng):
    a = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(a)
    return tuple(SpinAxis(tuple(q[:, k])) for k in range(3))


class TestSqueezing:
    def test_coherent_equator_is_unity(self):
        space = SpinSpace(12)
        report = squeezing(coherent_spin(space, math.pi / 2), ("z", "y", "x"))
        assert report.xi_r_squared == pytest.approx(1.0, abs=1e-10)
        assert report.xi_r_prime_squared == pytest.approx(1.0, abs=1e-10)

    def test_noon_flagged_undefined(self):
        # zero mean spin: both denominators vanish
        space = SpinSpace(6)
        report = squeezing(noon(space), ("x", "y", "z"))
        assert report.xi_r_squared is None
        assert report.xi_r_prime_squared is None

    def test_separability_parameter_on_random_coherent_states(self, rng):
        space = SpinSpace(8)
        for _ in range(40):
            probe = coherent_spin(space, float(rng.uniform(0.0, math.pi)),
                                  float(rng.uniform(0.0, 2 * math.pi)))
            report = squeezing(probe, random_triple(rng))
            if report.xi_r_prime_squared is not None:
                assert report.xi_r_prime_squared >= 1.0 - 1e-9

    def test_rejects_non_orthogonal_axes(self):
        space = SpinSpace(2)
        with pytest.raises(ValueError, match="orthogonal"):
            squeezing(noon(space), ("z", "z", "x"))


class TestUsefulEntanglement:
    def test_boundary_not_useful(self):
        assert useful_entanglement(10.0, 10) is False

    def test_noon_useful(self):
        assert useful_entanglement(qfi_pure(noon(SpinSpace(10)), "z"), 10) is True

    def test_twin_fock_useful(self):
        assert useful_entanglement(qfi_pure(twin_fock(SpinSpace(10)), "y"), 10) is True

    def test_coherent_states_never_useful(self, rng):
        space = SpinSpace(7)
        for _ in range(30):
            probe = coherent_spin(space, float(rng.uniform(0, math.pi)),
                                  float(rng.uniform(0, 2 * math.pi)))
            v = rng.normal(size=3)
            axis = SpinAxis(tuple(v / np.linalg.norm(v)))
            assert useful_entanglement(qfi_pure(probe, axis), 7) is False


class TestKBound:
    def test_endpoints_n100(self):
        assert k_bound(100, 1) == 100.0
        assert k_bound(100, 100) == 10000.0

    def test_intermediate_value(self):
        # k = 25: s = 4, r = 0
        assert k_bound(100, 25) == 2500.0

    def test_almost_full_depth(self):
        assert k_bound(100, 99) == 99**2 + 1

    @given(n=st.integers(2, 200), data=st.data())
    def test_staircase_monotone_and_pinned(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        assert k_bound(n, k) <= k_bound(n, k + 1)
        assert k_bound(n, 1) == float(n)
        assert k_bound(n, n) == float(n * n)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            k_bound(10, 0)
        with pytest.raises(ValueError):
            k_bound(10, 11)


class TestEntanglementDepth:
    def test_shot_noise_value_is_depth_one(self):
        assert entanglement_depth(10.0, 10).depth == 1

    def test_just_above_almost_full_bound(self):
        report = entanglement_depth((100 - 1) ** 2 + 1 + 1e-6, 100)
        assert report.depth == 100

    def test_noon_saturation_full_depth(self):
        assert entanglement_depth(64.0, 8).depth == 8

    def test_exact_bound_is_compatible(self):
        # a value exactly on the k = 2 bound for N = 4: s k^2 + r^2 = 8
        assert entanglement_depth(8.0, 4).depth == 2

    def test_monotone_in_fisher_value(self):
        depths = [entanglement_depth(f, 12).depth
                  for f in np.linspace(0.0, 144.0, 60)]
        assert all(a <= b for a, b in zip(depths, depths[1:]))

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            entanglement_depth(101.0, 10)

    def test_staircase_rows(self):
        report = entanglement_depth(50.0, 10)
        assert len(report.bounds) == 10
        k, s, r, bound = report.bounds[2]  # k = 3: s = 3, r = 1
        assert (k, s, r, bound) == (3, 3, 1, 28.0)

    def test_csv_export(self):
        report = entanglement_depth(2500.0, 100)
        buf = io.StringIO()
        write_staircase_csv(report, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "k,s,r,bound"
        assert lines[1] == "1,100,0,100"
        assert lines[25] == "25,4,0,2500"
        assert lines[99] == "99,1,1,9802"
        assert lines[100] == "100,1,0,10000"


class TestSqueezingFisherCheck:
    def test_coherent_equator_tight(self):
        space = SpinSpace(10)
        check = squeezing_fisher_check(coherent_spin(space, math.pi / 2),
                                       ("z", "y", "x"))
        assert check.lhs == pytest.approx(1.0, abs=1e-10)
        assert check.rhs == pytest.approx(1.0, abs=1e-10)
        assert check.holds

    def test_random_pure_states_hold(self, rng):
        space = SpinSpace(5)
        for _ in range(60):
            amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            probe = PureState(space, amp / np.linalg.norm(amp))
            check = squeezing_fisher_check(probe, random_triple(rng))
            if not check.undefined:
                assert check.holds

    def test_mixture_of_coherent_states_holds(self):
        space = SpinSpace(6)
        state = mix([(0.5, coherent_spin(space, math.pi / 2, 0.0)),
                     (0.5, coherent_spin(space, math.pi / 2, 0.4))])
        check = squeezing_fisher_check(state, ("z", "y", "x"))
        assert check.holds

    def test_spin_moments_run_once(self, monkeypatch):
        from spinmetro import entanglement, fisher

        calls = []
        original = fisher.spin_moments

        def counting(probe):
            if not isinstance(probe, fisher.SpinMoments):
                calls.append(probe)
            return original(probe)

        for module in (entanglement, fisher):
            monkeypatch.setattr(module, "spin_moments", counting)
        space = SpinSpace(6)
        probe = mix([(0.3, twin_fock(space)), (0.7, coherent_spin(space, 1.1, 0.2))])
        check = squeezing_fisher_check(probe, ("z", "y", "x"))
        assert len(calls) == 1
        assert check.rhs == squeezing(probe, ("z", "y", "x")).xi_r_squared
        assert check.lhs == space.n_particles / qfi(probe, "y")

    def test_undefined_propagates(self):
        space = SpinSpace(4)
        check = squeezing_fisher_check(noon(space), ("x", "y", "z"))
        assert check.undefined
        assert check.holds is None

    def test_squeezed_implies_useful(self):
        # xi_R^2 < 1 forces F_Q > N through the check inequality; one-axis
        # twisting of the equator coherent state generates squeezed probes
        from spinmetro.linalg import expm_generator
        from spinmetro.spins import op_jz

        space = SpinSpace(8)
        jz = op_jz(space)
        css = coherent_spin(space, math.pi / 2)
        x_axis = SpinAxis.from_spec("x")
        found = 0
        for chi in (0.05, 0.1, 0.2, 0.3):
            u = expm_generator(jz @ jz, chi)
            amp = u @ css.amplitudes
            probe = PureState(space, amp / np.linalg.norm(amp))
            for alpha in np.linspace(0.0, math.pi, 31):
                n1 = SpinAxis((0.0, math.cos(alpha), math.sin(alpha)))
                n2 = SpinAxis((0.0, -math.sin(alpha), math.cos(alpha)))
                report = squeezing(probe, (n1, n2, x_axis))
                if report.xi_r_squared is not None and report.xi_r_squared < 1.0:
                    found += 1
                    assert useful_entanglement(qfi(probe, n2), space.n_particles)
                    check = squeezing_fisher_check(probe, (n1, n2, x_axis))
                    assert check.holds
        assert found > 0
