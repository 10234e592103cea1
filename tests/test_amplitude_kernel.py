"""The amplitude kernel of ProbabilityModel against a dense reference and closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from spinmetro.fisher import (Povm, ProbabilityModel, fisher_information,
                              povm_diagonal_coefficients, povm_number_counting,
                              povm_probe_projection, qfi)
from spinmetro.linalg import dagger, max_abs
from spinmetro.spins import SpinAxis, SpinSpace, op_j, op_jx, op_jz, rotation
from spinmetro.states import (MixedState, PureState, coherent_spin, fock,
                              noon, twin_fock)

THETAS = np.array([-1.9, -0.4, 0.0, 0.37, 1.2, 2.6])


def dense_tables(probe, axis, elements, thetas):
    """P = Tr[E rho], dP = Tr[E (-i)[J_n, rho]] and d2P = -Tr[E [J_n, [J_n, rho]]]
    with rho = U rho0 U^dag, densely."""
    h = op_j(probe.space, axis)
    rho0 = probe.density_matrix()
    tables = []
    for theta in thetas:
        u = rotation(probe.space, axis, float(theta))
        rho = u @ rho0 @ dagger(u)
        drho = -1j * (h @ rho - rho @ h)
        d2rho = -1j * (h @ drho - drho @ h)
        tables.append([[np.trace(e @ r).real for e in elements] for r in (rho, drho, d2rho)])
    return np.array(tables).transpose(1, 0, 2)


def random_pure(rng, space):
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return PureState(space, amp / np.linalg.norm(amp))


def random_mixed(rng, space):
    weights = rng.random(3)
    weights /= weights.sum()
    rho = sum(w * random_pure(rng, space).density_matrix() for w in weights)
    return MixedState(space, rho)


def random_projective(rng, space):
    a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    q, _ = np.linalg.qr(a)
    return [np.outer(q[:, k], q[:, k].conj()) for k in range(space.dim)]


def smeared_counting(rng, space):
    """Counting followed by a column-stochastic channel, plus one never-seen outcome."""
    s = rng.random((space.dim + 1, space.dim)) ** 2
    s[-1] = 0.0
    s /= s.sum(axis=0)
    return [np.diag(row).astype(complex) for row in s]


def build_case(rng, n, probe_kind, povm_kind):
    space = SpinSpace(n)
    probe = random_pure(rng, space) if probe_kind == "pure" else random_mixed(rng, space)
    if povm_kind == "counting":
        povm = povm_number_counting(space)
    elif povm_kind == "projection":
        target = probe if isinstance(probe, PureState) else random_pure(rng, space)
        povm = povm_probe_projection(target)
    else:
        make = random_projective if povm_kind == "rank-one" else smeared_counting
        elements = make(rng, space)
        povm = Povm(labels=tuple(range(len(elements))), elements=elements)
    axis = SpinAxis(tuple(rng.normal(size=3)))
    return probe, axis, povm


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("probe_kind", ["pure", "mixed"])
@pytest.mark.parametrize("povm_kind", ["counting", "projection", "rank-one", "smeared"])
def test_tables_match_dense_reference(n, probe_kind, povm_kind):
    rng = np.random.default_rng([n, len(probe_kind), len(povm_kind)])
    probe, axis, povm = build_case(rng, n, probe_kind, povm_kind)
    model = ProbabilityModel(probe, axis, povm)
    ref_p, ref_dp, ref_d2p = dense_tables(probe, axis, povm.elements, THETAS)
    assert max_abs(model.probability_table(THETAS) - ref_p) < 1e-12
    assert max_abs(model.derivative_table(THETAS) - ref_dp) < 1e-12
    # the refinements' pass: one kernel, so P and dP are the tables' own bits
    p, dp, d2p = model._tables(THETAS, 2)
    assert np.array_equal(p, model.probability_table(THETAS))
    assert np.array_equal(dp, model.derivative_table(THETAS))
    assert max_abs(d2p - ref_d2p) < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2])
def test_nan_angle_raises_instead_of_returning_nan_rows(order):
    # a NaN defect compares False with any bound; slipping past the check, it
    # would make fisher_information(model, nan) return F = 0
    space = SpinSpace(4)
    model = ProbabilityModel(twin_fock(space), "y", povm_number_counting(space))
    with pytest.raises(RuntimeError, match="do not normalise"):
        model._tables([0.3, math.nan], order)


def test_dense_povm_factorisation_keeps_its_elements():
    rng = np.random.default_rng(5)
    space = SpinSpace(5)
    elements = smeared_counting(rng, space)
    povm = Povm(labels=tuple(range(len(elements))), elements=elements)
    assert len(povm) == len(elements)
    for given, rebuilt in zip(elements, povm.elements):
        assert max_abs(given - rebuilt) < 1e-14


@pytest.mark.parametrize("mu", [-1.5, 0.5])
def test_projection_vectors_for_basis_state_probes(mu):
    # the Householder completion must not cancel when the probe is |0> itself
    space = SpinSpace(3)
    probe = fock(space, mu)
    projector, complement = povm_probe_projection(probe).elements
    assert max_abs(projector - probe.density_matrix()) < 1e-15
    assert max_abs(complement - (np.eye(space.dim) - probe.density_matrix())) < 1e-15


def test_rejects_non_hermitian_element():
    with pytest.raises(ValueError, match="Hermitian"):
        Povm(labels=("a", "b"),
             elements=(np.array([[1.0, 0.5], [0.0, 0.0]]), np.diag([0.0, 1.0])))


def test_diagonal_coefficients_read_from_vectors():
    space = SpinSpace(6)
    jz = op_jz(space)
    assert np.array_equal(povm_diagonal_coefficients(povm_number_counting(space), jz),
                          space.mu)
    probe = noon(space)
    observable = 2.0 * probe.density_matrix() - 0.5 * (np.eye(space.dim) - probe.density_matrix())
    assert np.allclose(povm_diagonal_coefficients(povm_probe_projection(probe), observable),
                       [2.0, -0.5], atol=1e-14)


def test_counting_coefficients_reject_non_diagonal_observables():
    space = SpinSpace(6)
    counting = povm_number_counting(space)
    perm = np.random.default_rng(3).permutation(space.dim)
    permuted = Povm._from_vectors(counting.labels, np.eye(space.dim)[:, perm],
                                  np.arange(space.dim))
    non_hermitian = np.diag(space.mu + 0.5j)
    for observable in (op_jx(space), op_jz(space) + 1e-6 * op_jx(space), non_hermitian):
        messages = []
        for povm in (counting, permuted):
            with pytest.raises(ValueError, match="not diagonal in the POVM basis") as err:
                povm_diagonal_coefficients(povm, observable)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_counting_coefficients_match_general_path():
    # a permuted identity is not `_is_identity`, so it takes the general path
    rng = np.random.default_rng(11)
    space = SpinSpace(9)
    observable = np.diag(rng.normal(size=space.dim) * 1e3) + 1e-10 * rng.normal(
        size=(space.dim, space.dim))
    perm = rng.permutation(space.dim)
    permuted = Povm._from_vectors(tuple(range(space.dim)), np.eye(space.dim)[:, perm],
                                  np.arange(space.dim))
    counting = povm_diagonal_coefficients(povm_number_counting(space), observable)
    assert np.array_equal(counting[perm], povm_diagonal_coefficients(permuted, observable))
    # outcomes owning several basis vectors: the parity of the Dicke index
    starts = [0, 5]
    parity = np.diag(np.where(np.arange(space.dim) < 5, 2.0, -1.0))
    grouped = Povm._from_vectors(("low", "high"), np.eye(space.dim), starts)
    assert np.array_equal(povm_diagonal_coefficients(grouped, parity), [2.0, -1.0])
    with pytest.raises(ValueError, match="not diagonal"):
        povm_diagonal_coefficients(grouped, op_jz(space))


def test_counting_model_build_forms_no_dense_povm_product():
    # V (complex) and the real eigenvectors W are N^2 each; a dense F^dag V or a
    # complex eigh of J_n adds another complex N^2 = 64 MiB at N = 2048
    space = SpinSpace(2048)
    probe, povm = coherent_spin(space, math.pi / 2), povm_number_counting(space)
    tracemalloc.start()
    try:
        ProbabilityModel(probe, "y", povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20


class TestLargeN:
    N = 1000

    def test_rotated_coherent_state_is_binomial(self):
        # exp(-i theta J_y) takes the x-polarised state to polar angle pi/2 + theta
        n = self.N
        space = SpinSpace(n)
        model = ProbabilityModel(coherent_spin(space, math.pi / 2), "y",
                                 povm_number_counting(space))
        for theta in (0.3, 1.1):
            c, s = math.cos(math.pi / 4 + theta / 2), math.sin(math.pi / 4 + theta / 2)
            binomial = np.array([
                math.exp(math.log(math.comb(n, k)) + 2 * k * math.log(c)
                         + 2 * (n - k) * math.log(s))
                for k in range(n + 1)
            ])
            assert max_abs(model.probabilities(theta) - binomial) < 1e-12
            assert fisher_information(model, theta).fi == pytest.approx(n, rel=1e-8)

    def test_twin_fock_qfi(self):
        n = self.N
        assert qfi(twin_fock(SpinSpace(n)), "y") == pytest.approx(n * n / 2 + n, rel=1e-12)

    def test_noon_projection_heisenberg(self):
        n = self.N
        probe = noon(SpinSpace(n))
        model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
        for theta in (0.3 * math.pi / n, 0.77 * math.pi / n):
            assert fisher_information(model, theta).fi == pytest.approx(n * n, rel=1e-8)


@pytest.mark.parametrize("n", [20, 250, 1000])
@pytest.mark.parametrize("probe_kind", ["twin-fock", "noon", "css"])
def test_fisher_never_exceeds_qfi(n, probe_kind):
    """F <= F_Q (1 + 1e-12) on theta grids that include zeros of P: theta = 0,
    pi/2 and pi for counting about y, and the zero pi/N of cos^2(N theta / 2)
    for NOON with the projection about z.  The counting grids add
    theta = 455 pi/700, which turns the css 4e-4 rad short of the pole, so at
    N = 20 the outcome mu = -8 is flagged "limit"."""
    space = SpinSpace(n)
    if probe_kind == "noon":
        probe, axis = noon(space), "z"
        povm, thetas = povm_probe_projection(probe), np.linspace(0.0, 2 * math.pi / n, 33)
    else:
        probe = twin_fock(space) if probe_kind == "twin-fock" else coherent_spin(space, 1.1)
        axis, povm = "y", povm_number_counting(space)
        thetas = np.append(np.linspace(0.0, math.pi, 33), 455 * math.pi / 700)
    model = ProbabilityModel(probe, axis, povm)
    fq = qfi(probe, axis)
    worst = max(fisher_information(model, float(t)).fi for t in thetas)
    assert worst <= fq * (1 + 1e-12)


def test_fisher_limit_branch_stays_below_qfi():
    # twin-Fock at N = 250 near theta = 0: P(mu = +-6) < P_FLOOR while |dP| > D_FLOOR,
    # so both outcomes are flagged "limit" and keep (dP)^2/P; a central difference
    # of P'' in their place overshot F_Q by 1.8e-10 relative
    space = SpinSpace(250)
    probe = twin_fock(space)
    rep = fisher_information(ProbabilityModel(probe, "y", povm_number_counting(space)),
                             math.pi / 700)
    assert [kind for _, kind in rep.flagged].count("limit") == 2
    assert rep.fi <= qfi(probe, "y") * (1 + 1e-12)
