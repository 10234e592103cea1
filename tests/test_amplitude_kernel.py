"""The amplitude kernel of ProbabilityModel against a dense reference and closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from spinmetro import fisher
from spinmetro.fisher import (Povm, ProbabilityModel, fisher_information,
                              povm_diagonal_coefficients, povm_number_counting,
                              povm_probe_projection, qfi)
from spinmetro.linalg import NumericalError, dagger, max_abs
from spinmetro.spins import SpinAxis, SpinSpace, op_j, op_jx, op_jz, rotation
from spinmetro.states import (MixedState, PureState, coherent_spin, fock, mix,
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
    with pytest.raises(NumericalError, match="do not normalise"):
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
    # the stored probe and the complement I - |psi><psi| are exact for a Dicke state,
    # |0> included
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
    # a permuted identity is not the counting POVM, so it takes the general path
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


def test_diagonal_observable_as_its_diagonal_matches_the_dense_call():
    # the moments command passes J_z as mu; the coefficients must keep their bits
    space = SpinSpace(9)
    counting = povm_number_counting(space)
    assert np.array_equal(povm_diagonal_coefficients(counting, space.mu),
                          povm_diagonal_coefficients(counting, op_jz(space)))
    # a diagonal observable that the projection onto a Dicke state resolves
    probe = fock(space, 1.5)
    diagonal = np.where(np.arange(space.dim) == space.index_of(1.5), 2.0, -0.5)
    projection = povm_probe_projection(probe)
    coeffs = povm_diagonal_coefficients(projection, diagonal)
    assert np.array_equal(coeffs, povm_diagonal_coefficients(projection, np.diag(diagonal)))
    assert np.array_equal(coeffs, [2.0, -0.5])
    for povm in (counting, projection):
        messages = []
        for observable in (space.mu + 0.5j, np.diag(space.mu + 0.5j)):
            with pytest.raises(ValueError, match="not diagonal") as err:
                povm_diagonal_coefficients(povm, observable)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    with pytest.raises(ValueError, match="does not act on"):
        povm_diagonal_coefficients(counting, space.mu[1:])


def test_counting_model_build_forms_no_dense_povm_product():
    # the real eigenvectors W (32 MiB at N = 2048) are the only N^2 array; a dense
    # F^dag V or a complex eigh of J_n adds a complex N^2 = 64 MiB
    space = SpinSpace(2048)
    probe, povm = coherent_spin(space, math.pi / 2), povm_number_counting(space)
    tracemalloc.start()
    try:
        ProbabilityModel(probe, "y", povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20


def test_counting_model_build_at_n4096_fits_256_mib():
    # the real eigenvectors W take 128 MiB; a dense complex identity for the
    # POVM would take 256 MiB on its own
    space = SpinSpace(4096)
    probe = coherent_spin(space, math.pi / 2)
    tracemalloc.start()
    try:
        ProbabilityModel(probe, "y", povm_number_counting(space))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


def test_models_at_n4096_never_hold_the_eigenvectors_whole():
    # W takes 128 MiB at N = 4096; the model keeps only its columns on the support
    # (655 of 4097 for css about y, 20 MiB), taken block by block as W is made
    space = SpinSpace(4096)
    noon_probe = noon(space)
    for probe, axis, povm, held_mib, peak_mib in (
            (coherent_spin(space, math.pi / 2), "y", povm_number_counting(space), 24, 112),
            (noon_probe, "z", povm_probe_projection(noon_probe), 1, 24)):
        tracemalloc.start()
        try:
            model = ProbabilityModel(probe, axis, povm)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < held_mib * 2**20 and peak < peak_mib * 2**20
        del model


def test_projection_and_mixture_models_at_n4096_form_no_dense_complex_matrix():
    # a complex (N+1)^2 array takes 256 MiB; the real eigenvectors W of a
    # rotation about y take 128 MiB, and about z they are the identity
    space = SpinSpace(4096)
    probe = noon(space)
    tracemalloc.start()
    try:
        model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
        p_noon = model.probability_table([0.3 * math.pi / space.n_particles])
        del model
        mixed = mix([(0.5, probe), (0.5, twin_fock(space))])
        p_mix = ProbabilityModel(mixed, "y", povm_number_counting(space)).probability_table([0.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20
    assert p_noon[0] == pytest.approx([math.cos(0.15 * math.pi) ** 2,
                                       math.sin(0.15 * math.pi) ** 2], rel=1e-12)
    assert p_mix.sum() == pytest.approx(1.0, abs=1e-10)


def test_povm_rejects_non_finite_elements():
    # NaN fails every `>` comparison of the Hermitian, PSD and identity checks
    with pytest.raises(ValueError, match="non-finite"):
        Povm(labels=("a", "b"), elements=(np.full((2, 2), np.nan), np.eye(2)))


def test_diagonal_coefficients_reject_non_finite_observables():
    space = SpinSpace(4)
    observable = op_jz(space)
    observable[2, 2] = np.nan
    for povm in (povm_number_counting(space), povm_probe_projection(noon(space))):
        with pytest.raises(ValueError, match="non-finite"):
            povm_diagonal_coefficients(povm, observable)


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


def _kernel_case(kind, n):
    space = SpinSpace(n)
    counting = povm_number_counting(space)
    if kind == "noon-projection-z":
        return ProbabilityModel(noon(space), "z", povm_probe_projection(noon(space)))
    if kind == "dicke-z":
        return ProbabilityModel(fock(space, space.mu[n // 3]), "z", counting)
    if kind == "twin-fock-y":
        return ProbabilityModel(twin_fock(space), "y", counting)
    if kind == "noon-y":
        return ProbabilityModel(noon(space), "y", counting)
    if kind == "css-y":
        return ProbabilityModel(coherent_spin(space, math.pi / 2), "y", counting)
    return ProbabilityModel(coherent_spin(space, math.pi / 2), OBLIQUE, counting)


OBLIQUE = (0.3, -0.5, 0.8)


@pytest.mark.parametrize("kind, n, size", [
    ("noon-projection-z", 20, 2), ("noon-projection-z", 1000, 2),
    ("dicke-z", 20, 1), ("dicke-z", 1001, 1),
    # a parity probe about y populates every other J_y eigenstate
    ("twin-fock-y", 20, 11), ("twin-fock-y", 100, 51), ("twin-fock-y", 1000, 501),
    ("noon-y", 20, 11),
    # NOON's amplitudes about y are binomial, sqrt(C(N, k) / 2^N) on one parity: at
    # N = 100 the two outermost, 2^-49.5 ~ 1.3e-15, lie below the rounding bound
    # dim u = 1.1e-14 of W^T y
    ("noon-y", 100, 49),
    ("css-y", 20, 21),
])
def test_support_has_the_structural_size(kind, n, size):
    model = _kernel_case(kind, n)
    assert model._support.size == model._lam.size == model._probe_columns.shape[0] == size
    assert model._povm_basis.shape[1] == size
    # kernel order: -P, the unpaired entries, then P, so the first `mirrored` phases
    # are the last ones' mirror image
    lam, mirrored = model._lam, model._mirrored
    assert np.array_equal(lam[:mirrored], -lam[::-1][:mirrored])
    assert np.array_equal(model.space.mu[model._support], lam)
    if size == model.space.dim:
        assert np.array_equal(model._support, np.arange(size))


def _binomial_tables(n, axis, thetas):
    """P and dP/dtheta of counting on the x-polarised coherent state rotated about
    `axis`: binomial in q = (1 + z)/2, z the Bloch vector's z after the rotation."""
    v, axis = np.array([1.0, 0.0, 0.0]), SpinAxis.from_spec(axis).as_array()
    k = np.arange(n + 1)
    log_comb = np.array([math.log(math.comb(n, int(i))) for i in k])
    p_rows, dp_rows = [], []
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        cross, along = np.cross(axis, v)[2], axis[2] * (axis @ v)
        z, dz = v[2] * c + cross * s + along * (1 - c), -v[2] * s + cross * c + along * s
        q = (1 + z) / 2
        p = np.exp(log_comb + k * math.log(q) + (n - k) * math.log(1 - q))
        p_rows.append(p)
        dp_rows.append(p * (k / q - (n - k) / (1 - q)) * dz / 2)
    return np.array(p_rows), np.array(dp_rows)


@pytest.mark.parametrize("n", [1000, 4096])
@pytest.mark.parametrize("kind", ["css-y", "css-oblique", "noon-projection-z"])
def test_support_tables_match_closed_forms(monkeypatch, kind, n):
    """Restricted tables against closed forms: the error is no larger than that of
    the unrestricted tables (every nonzero part kept) beyond the derived bound of
    the parts set to 0, and small in absolute terms."""
    if kind == "noon-projection-z":
        thetas = np.array([0.3, 0.77, 1.6]) * math.pi / n
        closed = (np.cos(n * thetas / 2) ** 2, -n / 2 * np.sin(n * thetas))
    else:
        thetas = np.array([-1.3, 0.3, 1.1])
        binomial = _binomial_tables(n, "y" if kind == "css-y" else OBLIQUE, thetas)

    def errors():
        model = _kernel_case(kind, n)
        tables = model._tables(thetas, 1)
        if kind == "noon-projection-z":
            tables = tables[..., 0]
            return model._support.size, [max_abs(tables[i] - closed[i]) for i in (0, 1)]
        return model._support.size, [max_abs(tables[i] - binomial[i]) for i in (0, 1)]

    size, (p_err, dp_err) = errors()
    monkeypatch.setattr(fisher, "_UNIT_ROUNDOFF", 0.0)
    full_size, (full_p_err, full_dp_err) = errors()
    assert size <= full_size  # NOON about z: two components either way
    dim = n + 1
    delta = 2 * math.sqrt(2 * dim) * dim * np.finfo(float).eps / 2
    assert p_err <= full_p_err + 4 * delta * (1 + delta)
    assert dp_err <= full_dp_err + 8 * (n / 2) * delta * (1 + delta)
    assert p_err <= 1e-12 and dp_err <= 1e-13 * n


@pytest.mark.parametrize("n", [20, 100, 1000])
def test_projection_complement_near_its_zero(n):
    """NOON about z: P_orth = sin^2(N theta / 2) and F = N^2 as P_orth -> 0.

    The complement's P comes from the residual x - G^dag a, not from
    1 - P_probe, so it keeps its relative accuracy down to theta = 1e-9 pi/N,
    where P_orth is 2.5e-18 and the outcome is flagged "limit"."""
    probe = noon(SpinSpace(n))
    model = ProbabilityModel(probe, "z", povm_probe_projection(probe))
    thetas = np.logspace(-9, -3, 13) * math.pi / n
    p_orth = model.probability_table(thetas)[:, 1]
    assert np.abs(p_orth / np.sin(n * thetas / 2) ** 2 - 1).max() <= 1e-12
    for theta in thetas:
        assert abs(fisher_information(model, theta).fi / n**2 - 1) <= 1e-12
    assert fisher_information(model, thetas[0]).flagged == (("orthogonal", "limit"),)


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
