"""State-engine tests: the labelled states and observables of the program, and
the reference state algebra (constructors, products, channels) in conftest."""
import numpy as np
import pytest

from tpcsim.qsim import (
    ALG_TOL,
    Operator,
    QsimError,
    QuantumState,
    SubsystemSpec,
    embedded_matrix,
    expectation,
    partial_trace,
)

from conftest import apply, apply_kraus, basis_ket, check_valid, pure_state, ry, tensor

SPIN2 = SubsystemSpec("spin", 2)
POL = SubsystemSpec("pol", 2)

# photon z is sign-flipped (V counts +1) so that the correlated Bell state
# (|0,V> + |-1,H>)/sqrt2 has ZZ = +1, matching the analysis convention
SZ_SPIN = np.diag([1.0, -1.0])
SZ_POL = np.diag([-1.0, 1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def bell_psi_plus(phi=0.0):
    """(|0,V> + e^{i phi} |-1,H>)/sqrt2 on (spin, pol)."""
    amps = np.zeros(4, dtype=complex)
    amps[0 * 2 + 1] = 1.0
    amps[1 * 2 + 0] = np.exp(1j * phi)
    return pure_state((SPIN2, POL), amps / np.sqrt(2.0))


def random_pure(subsystems, rng):
    dim = int(np.prod([s.dim for s in subsystems]))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return pure_state(subsystems, v / np.linalg.norm(v))


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConstructors:
    def test_basis_ket_product_state(self):
        state = basis_ket((SPIN2, POL), (0, 0))
        assert state.data[0] == 1.0
        assert abs(state.trace() - 1.0) < ALG_TOL

    def test_duplicate_labels_rejected(self):
        with pytest.raises(QsimError):
            QuantumState((SPIN2, SubsystemSpec("spin", 3)), np.zeros(6), "pure")

    def test_dim_below_two_rejected(self):
        with pytest.raises(QsimError):
            SubsystemSpec("x", 1)


class TestTensor:
    def test_product_of_basis_states(self):
        a = basis_ket((SPIN2,), (0,))
        b = basis_ket((POL,), (0,))
        joint = tensor(a, b)
        assert joint.labels == ("spin", "pol")
        assert joint.data[0] == 1.0

    def test_linearity_in_first_factor(self):
        plus = pure_state((SPIN2,), np.array([1.0, 1.0]) / np.sqrt(2))
        h = basis_ket((POL,), (0,))
        joint = tensor(plus, h)
        expected = np.zeros(4)
        expected[0] = expected[2] = 1 / np.sqrt(2)
        assert np.allclose(joint.data, expected)

    def test_duplicate_label_rejected(self):
        a = basis_ket((SPIN2,), (0,))
        with pytest.raises(QsimError):
            tensor(a, a)

    def test_mixed_pure_promotes(self):
        a = basis_ket((SPIN2,), (0,)).to_density()
        b = basis_ket((POL,), (1,))
        joint = tensor(a, b)
        assert joint.kind == "mixed"
        assert abs(joint.trace() - 1.0) < ALG_TOL

    def test_trace_multiplies(self):
        a = QuantumState((SPIN2,), 0.5 * np.diag([1.0, 0.0]).astype(complex), "mixed")
        b = QuantumState((POL,), 0.5 * np.diag([0.0, 1.0]).astype(complex), "mixed")
        assert abs(tensor(a, b).trace() - 0.25) < ALG_TOL


class TestRy:
    def test_half_pi_on_lower_level(self):
        # ry(pi/2)|-1> = (|-1> - |0>)/sqrt2 in the (|0>, |-1>) ordering
        state = apply(basis_ket((SPIN2,), (1,)), ry(np.pi / 2, "spin", 2))
        expected = np.array([-1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(state.data, expected, atol=ALG_TOL)

    def test_zero_angle_is_identity(self):
        assert np.allclose(ry(0.0, "spin", 2).matrix, np.eye(2))

    def test_pi_flip_up_to_global_sign(self):
        # hand-multiplied 2x2 oracle: R_y(pi) (-|0>+|-1>)/sqrt2 = -(|0>+|-1>)/sqrt2
        vec = np.array([-1.0, 1.0]) / np.sqrt(2)
        out = ry(np.pi, "spin", 2).matrix @ vec
        assert np.allclose(out, -np.array([1.0, 1.0]) / np.sqrt(2), atol=ALG_TOL)

    def test_embeds_as_identity_on_other_levels(self):
        op = ry(np.pi / 3, "spin", 7, levels=(0, 1))
        m = op.matrix
        assert np.allclose(m[2:, 2:], np.eye(5))
        assert np.allclose(m[2:, :2], 0.0)


class TestApply:
    def test_unitary_roundtrip(self):
        rng = np.random.default_rng(7)
        state = random_pure((SPIN2, POL), rng)
        u = Operator(random_unitary(2, rng), ("pol",))
        back = apply(apply(state, u), Operator(u.matrix.conj().T, u.targets))
        assert np.allclose(back.data, state.data, atol=ALG_TOL)

    def test_identity_leaves_state(self):
        rng = np.random.default_rng(8)
        state = random_pure((SPIN2,), rng)
        out = apply(state, Operator(np.eye(2), ("spin",)))
        assert np.allclose(out.data, state.data)

    def test_linearity_on_random_states(self):
        rng = np.random.default_rng(9)
        u = Operator(random_unitary(4, rng), ("spin", "pol"))
        for _ in range(20):
            s1 = random_pure((SPIN2, POL), rng)
            s2 = random_pure((SPIN2, POL), rng)
            a, b = rng.standard_normal(2)
            combo = pure_state((SPIN2, POL), a * s1.data + b * s2.data)
            lhs = apply(combo, u).data
            rhs = a * apply(s1, u).data + b * apply(s2, u).data
            assert np.allclose(lhs, rhs, atol=ALG_TOL)

    def test_norm_preserved_by_unitaries(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            state = random_pure((SPIN2, POL), rng)
            u = Operator(random_unitary(2, rng), ("spin",))
            assert abs(apply(state, u).trace() - 1.0) < ALG_TOL

    def test_dimension_mismatch_raises(self):
        state = basis_ket((SPIN2,), (0,))
        with pytest.raises(QsimError):
            apply(state, Operator(np.eye(3), ("spin",)))

    def test_target_order_respected(self):
        # CNOT with control listed second must differ from control listed first
        rng = np.random.default_rng(11)
        state = random_pure((SPIN2, POL), rng)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        a = apply(state, Operator(cnot, ("spin", "pol"))).data
        b = apply(state, Operator(cnot, ("pol", "spin"))).data
        assert not np.allclose(a, b)


class TestKraus:
    def test_identity_channel(self):
        rng = np.random.default_rng(12)
        state = random_pure((SPIN2,), rng).to_density()
        out = apply_kraus(state, [Operator(np.eye(2), ("spin",))])
        assert np.allclose(out.data, state.data, atol=ALG_TOL)

    def test_full_dephasing(self):
        plus = pure_state((POL,), np.array([1.0, 1.0]) / np.sqrt(2))
        kraus = [
            Operator(np.diag([1.0, 0.0]), ("pol",)),
            Operator(np.diag([0.0, 1.0]), ("pol",)),
        ]
        out = apply_kraus(plus, kraus)
        assert np.allclose(out.data, np.diag([0.5, 0.5]), atol=ALG_TOL)

    def test_two_level_damping_closed_form(self):
        # amplitude-style shelving on a 2-level system: population p moves across
        for p in (0.0, 0.3, 0.7, 1.0):
            k0 = Operator(np.diag([1.0, np.sqrt(1.0 - p)]), ("spin",))
            k1 = Operator(np.sqrt(p) * np.array([[0.0, 1.0], [0.0, 0.0]]), ("spin",))
            out = apply_kraus(basis_ket((SPIN2,), (1,)), [k0, k1])
            assert abs(out.data[0, 0].real - p) < ALG_TOL
            assert abs(out.trace() - 1.0) < ALG_TOL

    def test_completeness_enforced(self):
        state = basis_ket((SPIN2,), (0,))
        with pytest.raises(QsimError):
            apply_kraus(state, [Operator(0.5 * np.eye(2), ("spin",))])

    def test_trace_preserved_on_random_channels(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = rng.uniform(0, 1)
            kraus = [
                Operator(np.diag([1.0, np.sqrt(1.0 - p)]), ("spin",)),
                Operator(np.sqrt(p) * np.array([[0.0, 1.0], [0.0, 0.0]]), ("spin",)),
            ]
            state = random_pure((SPIN2, POL), rng)
            out = apply_kraus(state, kraus)
            assert abs(out.trace() - 1.0) < ALG_TOL
            check_valid(out)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace(bell_psi_plus(), ["spin"])
        assert np.allclose(reduced.data, np.eye(2) / 2, atol=ALG_TOL)

    def test_trace_over_nothing(self):
        state = bell_psi_plus()
        full = partial_trace(state, ["spin", "pol"])
        assert np.allclose(full.data, state.to_density().data, atol=ALG_TOL)

    def test_product_state_marginal(self):
        joint = tensor(basis_ket((SPIN2,), (0,)), basis_ket((POL,), (0,)))
        reduced = partial_trace(joint, ["spin"])
        assert np.allclose(reduced.data, np.diag([1.0, 0.0]), atol=ALG_TOL)

    def test_empty_keep_rejected(self):
        with pytest.raises(QsimError):
            partial_trace(bell_psi_plus(), [])

    def test_tensor_roundtrip(self):
        rng = np.random.default_rng(14)
        a = random_pure((SPIN2,), rng)
        b = random_pure((POL,), rng)
        back = partial_trace(tensor(a, b), ["spin"])
        assert np.allclose(back.data, a.to_density().data, atol=ALG_TOL)


class TestExpectation:
    def test_zz_on_bell_plus_is_one(self):
        # 4x4 contraction by hand: diag(+1 on |0,V> and |-1,H>) in the flipped-photon-z convention
        obs = Operator(np.kron(SZ_SPIN, SZ_POL), ("spin", "pol"))
        assert abs(expectation(bell_psi_plus(), obs) - 1.0) < ALG_TOL

    def test_xx_on_bell_plus_is_one(self):
        obs = Operator(np.kron(SX, SX), ("spin", "pol"))
        assert abs(expectation(bell_psi_plus(), obs) - 1.0) < ALG_TOL

    def test_identity_on_unit_trace(self):
        rng = np.random.default_rng(15)
        state = random_pure((SPIN2, POL), rng).to_density()
        obs = Operator(np.eye(2), ("pol",))
        assert abs(expectation(state, obs) - 1.0) < ALG_TOL

    def test_non_hermitian_rejected(self):
        obs = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), ("spin",))
        with pytest.raises(QsimError):
            expectation(bell_psi_plus(), obs)


class TestValidation:
    def test_psd_violation_detected(self):
        bad = QuantumState((SPIN2,), np.diag([1.5, -0.5]).astype(complex), "mixed")
        with pytest.raises(QsimError):
            check_valid(bad)

    def test_subnormalized_state_allowed_with_expected_trace(self):
        half = QuantumState((SPIN2,), 0.5 * np.diag([1.0, 0.0]).astype(complex), "mixed")
        check_valid(half, expected_trace=0.5)

    def test_embedded_matrix_matches_kron_for_adjacent_targets(self):
        rng = np.random.default_rng(16)
        u = random_unitary(2, rng)
        state = random_pure((SPIN2, POL), rng)
        m = embedded_matrix(Operator(u, ("pol",)), state)
        assert np.allclose(m, np.kron(np.eye(2), u), atol=ALG_TOL)
        m2 = embedded_matrix(Operator(u, ("spin",)), state)
        assert np.allclose(m2, np.kron(u, np.eye(2)), atol=ALG_TOL)
