import ast
import inspect
import math

import numpy as np
import pytest

import bosonspectra.oracle
import fock_reference
from bosonspectra import (
    CapacityError,
    CoefficientSpectrum,
    ConfigurationError,
    GaussianWavepacket,
    Interferometer,
    LambdaMatrix,
    MixedPhotonSource,
    fock_evolve,
    lambda_from_photons,
    make_beamsplitter_50_50,
    make_dft,
    make_random_unitary,
    mixture_lambdas,
    oracle_probability,
    verify_against_oracle,
    verify_chunks,
)
from bosonspectra.oracle import STATE_BUDGET, _groups, _largest_step, _product
from bosonspectra.sampling import _occupations
from conftest import hom_lambda, random_unit_rows


def rescan_probability(state, sig):
    """Blind-detector probability by a full pass over the state for one signature."""
    nb = state.basis_size
    total = 0.0
    for occ, amp in state.amplitudes.items():
        marginal = tuple(sum(occ[k * nb : (k + 1) * nb]) for k in range(state.m))
        if marginal == tuple(sig):
            total += abs(amp) ** 2
    return float(total)


def six_gaussians():
    """Six distinct Gaussian photons: a triangular coefficient matrix over six basis functions."""
    return [GaussianWavepacket(0.1 * k, 1.0 + 0.1 * k, 0.3 * k) for k in range(6)]


def random_gaussians(rng, n):
    return [
        GaussianWavepacket(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 1.6), rng.uniform(-2.0, 2.0))
        for _ in range(n)
    ]


class TestFockEvolve:
    def test_single_photon_splits_evenly(self):
        bs = make_beamsplitter_50_50()
        state = fock_evolve(bs, LambdaMatrix([[1.0]]), (1,))
        r = 1.0 / math.sqrt(2.0)
        assert state.amplitudes[(1, 0)] == pytest.approx(r)
        assert state.amplitudes[(0, 1)] == pytest.approx(r)

    def test_hom_indistinguishable_amplitudes(self):
        bs = make_beamsplitter_50_50()
        state = fock_evolve(bs, LambdaMatrix([[1.0], [1.0]]), (1, 2))
        assert state.amplitudes[(2, 0)] == pytest.approx(1.0 / math.sqrt(2.0))
        assert (1, 1) not in state.amplitudes  # anti-bunching amplitude pruned at 0
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_random_instance(self, rng):
        u = make_random_unitary(5, 91)
        lam = random_unit_rows(rng, 3, 2)
        state = fock_evolve(u, lam, (1, 3, 5))
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_photon_number_and_spectral_counts_preserved(self, rng):
        u = make_random_unitary(4, 51)
        lam = LambdaMatrix(np.eye(3))  # distinguishable: fixed spectral profile
        state = fock_evolve(u, lam, (1, 2, 3))
        nb = state.basis_size
        for occ in state.amplitudes:
            assert sum(occ) == 3
            per_basis = tuple(sum(occ[i::nb]) for i in range(nb))
            assert per_basis == (1, 1, 1)

    def test_amplitudes_view_is_read_only(self):
        state = fock_evolve(make_beamsplitter_50_50(), LambdaMatrix([[1.0]]), (1,))
        with pytest.raises(TypeError):
            state.amplitudes[(1, 0)] = 0.0
        assert state.amplitudes is state.amplitudes

    def test_oracle_imports_nothing_from_the_permanent_module(self):
        tree = ast.parse(inspect.getsource(bosonspectra.oracle))
        imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        assert not any("permanent" in name for name in imported), imported

    def test_caps_enforced(self, monkeypatch):
        def no_step(keys):
            raise AssertionError("a photon step ran")

        monkeypatch.setattr(bosonspectra.oracle, "_groups", no_step)
        # Over the state budget: six distinct Gaussians on eight modes.
        distinct = lambda_from_photons(six_gaussians())
        assert distinct.basis_size == 6
        with pytest.raises(CapacityError, match=f"52128384 terms, over {STATE_BUDGET}"):
            fock_evolve(make_dft(8), distinct)
        # Beyond the key format: 11 photons, 65 and 68 joint modes.
        with pytest.raises(CapacityError, match="keys hold n <= 10 photons over m \\* N <= 64 joint modes"):
            fock_evolve(make_dft(11), LambdaMatrix(np.ones((11, 1))))
        for m, nb in [(65, 1), (17, 4)]:
            with pytest.raises(CapacityError, match=f"m \\* N = {m * nb}"):
                fock_evolve(make_dft(m), LambdaMatrix(np.eye(1, nb)))

    def test_malformed_inputs_rejected_before_the_budget(self):
        distinct = lambda_from_photons(six_gaussians())
        with pytest.raises(ConfigurationError, match="distinct"):
            fock_evolve(make_dft(8), distinct, (1, 1, 2, 3, 4, 5))
        with pytest.raises(ConfigurationError, match="input modes"):
            fock_evolve(make_dft(8), LambdaMatrix(np.ones((11, 1))))

    def test_state_bound(self):
        # Distinguishable photons: 8^6 states, each step under the budget.
        assert _largest_step(8, LambdaMatrix(np.eye(6))) == 8**6 <= STATE_BUDGET
        # Identical photons: the occupation count C(m + j, j + 1) caps each step.
        assert _largest_step(8, LambdaMatrix(np.ones((7, 1)))) == math.comb(13, 6) * 8
        # Seven identical photons and one more over two basis functions: the
        # first seven use one function, so C(8 + 6, 7) states meet the last
        # photon, not C(16 + 6, 7) (2728704 candidates, over the budget).
        assert _largest_step(8, LambdaMatrix([[1.0, 0.0]] * 7 + [[0.6, 0.8]])) == math.comb(14, 7) * 8 * 2

    def test_state_bound_covers_every_step(self, rng, monkeypatch):
        steps = []

        def counted(keys):
            steps.append(len(keys))
            return _groups(keys)

        monkeypatch.setattr(bosonspectra.oracle, "_groups", counted)
        instances = [(make_random_unitary(4, 3), random_unit_rows(rng, 4, 3)),
                     (make_random_unitary(5, 8), lambda_from_photons(random_gaussians(rng, 4))),
                     (make_dft(4), LambdaMatrix(np.ones((4, 1)))),
                     (make_dft(5), LambdaMatrix([[1.0, 0.0]] * 3 + [[0.6, 0.8]])),
                     (make_random_unitary(3, 2), LambdaMatrix(np.eye(3)))]
        for u, lam in instances:
            steps.clear()
            fock_evolve(u, lam)
            assert len(steps) == lam.n and max(steps) <= _largest_step(u.m, lam)
        # Distinguishable photons on a generic network reach the bound.
        assert steps[-1] == _largest_step(3, LambdaMatrix(np.eye(3)))

    def test_budget_is_the_limit(self, monkeypatch):
        lam = hom_lambda(0.6)
        bound = _largest_step(2, lam)
        assert bound == 8
        monkeypatch.setattr(bosonspectra.oracle, "STATE_BUDGET", bound)
        assert fock_evolve(make_beamsplitter_50_50(), lam).norm_squared() == pytest.approx(1.0)
        monkeypatch.setattr(bosonspectra.oracle, "STATE_BUDGET", bound - 1)
        with pytest.raises(CapacityError, match="8 terms, over 7"):
            fock_evolve(make_beamsplitter_50_50(), lam)


class TestOracleProbability:
    def test_hom_dip_closed_form(self):
        bs = make_beamsplitter_50_50()
        for alpha in np.linspace(0.0, 1.0, 11):
            state = fock_evolve(bs, hom_lambda(float(alpha)), (1, 2))
            p = oracle_probability(state, (1, 1), "nonresolved")
            assert p == pytest.approx((1.0 - alpha**2) / 2.0, abs=1e-12)

    def test_resolved_outcome_lookup(self):
        bs = make_beamsplitter_50_50()
        alpha = 0.6
        state = fock_evolve(bs, hom_lambda(alpha), (1, 2))
        assert oracle_probability(state, ((1, 1), (0, 0)), "resolved") == pytest.approx(0.0)
        bunched = oracle_probability(state, ((2, 0), (0, 0)), "resolved")
        assert bunched == pytest.approx(alpha**2 / 2.0)

    def test_signature_with_wrong_photon_count_rejected(self):
        state = fock_evolve(make_beamsplitter_50_50(), hom_lambda(0.6), (1, 2))
        for sig in [(3, 0), (1, 0), (0, 0)]:
            with pytest.raises(ConfigurationError, match=f"signature holds {sum(sig)} photons, expected 2"):
                oracle_probability(state, sig, "nonresolved")

    def test_resolved_outcome_with_wrong_photon_count_rejected(self):
        state = fock_evolve(make_beamsplitter_50_50(), hom_lambda(0.6), (1, 2))
        for outcome in [((1, 0), (0, 0)), ((2, 0), (0, 1)), ((0, 0), (0, 0))]:
            held = sum(map(sum, outcome))
            with pytest.raises(ConfigurationError, match=f"resolved outcome holds {held} photons, expected 2"):
                oracle_probability(state, outcome, "resolved")

    def test_nonresolved_probabilities_sum_to_one(self, rng):
        u = make_random_unitary(4, 77)
        lam = random_unit_rows(rng, 2, 2)
        state = fock_evolve(u, lam, (2, 4))
        total = 0.0
        for b1 in range(4):
            for b2 in range(b1, 4):
                sig = [0, 0, 0, 0]
                sig[b1] += 1
                sig[b2] += 1
                total += oracle_probability(state, tuple(sig), "nonresolved")
        assert total == pytest.approx(1.0, abs=1e-9)


def marginal_instances(rng):
    """(network, lambda, inputs): dense, rank-deficient and identical photons."""
    yield make_random_unitary(4, 3), random_unit_rows(rng, 3, 3), (1, 2, 4)
    yield make_random_unitary(5, 8), random_unit_rows(rng, 2, 4), (2, 5)
    yield make_random_unitary(4, 13), random_unit_rows(rng, 4, 2), None
    # rank 2 over 3 basis functions: photons 1 and 2 are identical
    yield make_random_unitary(4, 21), LambdaMatrix([[1, 0, 0], [1, 0, 0], [0, 0.6, 0.8]]), None
    # identical photons on a beamsplitter never leave by both ports
    yield make_beamsplitter_50_50(), LambdaMatrix([[1.0], [1.0]]), None


class TestMarginals:
    def test_lookup_equals_rescan_on_every_signature(self, rng):
        for u, lam, inputs in marginal_instances(rng):
            state = fock_evolve(u, lam, inputs)
            for sig in _occupations(lam.n, u.m):
                assert oracle_probability(state, sig, "nonresolved") == rescan_probability(state, sig)

    def test_signature_without_states_reads_zero(self):
        state = fock_evolve(make_beamsplitter_50_50(), LambdaMatrix([[1.0], [1.0]]), (1, 2))
        assert (1, 1) not in state._marginals
        assert oracle_probability(state, (1, 1), "nonresolved") == 0.0

    def test_table_sums_to_norm(self, rng):
        for u, lam, inputs in marginal_instances(rng):
            state = fock_evolve(u, lam, inputs)
            assert sum(state._marginals.values()) == pytest.approx(state.norm_squared(), abs=1e-12)

    def test_table_built_once_per_state(self, rng):
        state = fock_evolve(make_random_unitary(3, 2), random_unit_rows(rng, 2, 2), None)
        oracle_probability(state, (1, 1, 0), "nonresolved")
        table = state._marginals
        oracle_probability(state, (0, 2, 0), "nonresolved")
        assert state._marginals is table


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("detector", ["nonresolved", "resolved"])
    def test_gaussian_instances_agree(self, rng, detector):
        for trial in range(8):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 6))
            u = make_random_unitary(m, int(rng.integers(0, 10**6)))
            lam = lambda_from_photons(random_gaussians(rng, n))
            inputs = tuple(sorted(rng.choice(np.arange(1, m + 1), size=n, replace=False).tolist()))
            rows, dev = verify_against_oracle(u, lam, inputs, detector)
            assert dev <= 1e-9
            assert sum(p for _, p, _ in rows) == pytest.approx(1.0, abs=1e-9)

    def test_rotated_basis_still_agrees(self, rng):
        # The oracle consumes the same coefficient matrix as the engine,
        # so agreement must survive any basis rotation.
        u = make_random_unitary(4, 11)
        lam = random_unit_rows(rng, 3, 3)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(z)
        w = q * (np.diag(r) / np.abs(np.diag(r)))
        rows, dev = verify_against_oracle(u, lam.rotated(w), None, "nonresolved")
        assert dev <= 1e-9

    @pytest.mark.parametrize("detector", ["nonresolved", "resolved"])
    def test_verify_chunks_single_outcome_equals_its_sweep_row(self, rng, detector):
        g = random_gaussians(rng, 4)
        u, photons = make_random_unitary(3, 7), [g[0], g[1], MixedPhotonSource(((0.4, g[2]), (0.6, g[3])))]
        sweep = [(o, row) for outcomes, totals in verify_chunks(u, photons, None, detector)
                 for o, row in zip(outcomes, totals.tolist())]
        outcome, row = max(sweep, key=lambda item: item[1][0])
        # The outcome as lists: the oracle's lookup must not need tuples.
        as_lists = [list(part) for part in outcome] if detector == "resolved" else list(outcome)
        ((outcomes, totals),) = verify_chunks(u, photons, None, detector, as_lists)
        assert outcomes == [as_lists]
        assert totals.tolist() == [row]

    def test_unknown_detector_rejected_before_the_fock_expansion(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("fock_evolve ran for an unknown detector")

        monkeypatch.setattr(bosonspectra.oracle, "fock_evolve", no_expansion)
        with pytest.raises(ConfigurationError, match="bogus"):
            verify_against_oracle(make_beamsplitter_50_50(), hom_lambda(0.5), None, "bogus")

    @pytest.mark.parametrize("skipped,m,distinguishable,detector,error", [
        # Within the state budget (10^6 candidates), but 82598880 resolved
        # outcomes are over the sweep cap.
        ("fock_evolve", 10, True, "resolved", "82598880 resolved outcomes exceed the sweep cap"),
        # Over the state budget: refused before the engine's stream is made.
        ("_weighted_chunks", 8, False, "nonresolved", f"over {STATE_BUDGET}"),
    ])
    def test_every_check_runs_before_any_work(self, monkeypatch, skipped, m, distinguishable, detector, error):
        def no_work(*args):
            raise AssertionError(f"{skipped} ran before every check")

        monkeypatch.setattr(bosonspectra.oracle, skipped, no_work)
        photons = [CoefficientSpectrum(row) for row in np.eye(6)] if distinguishable else six_gaussians()
        with pytest.raises(CapacityError, match=error):
            list(verify_chunks(make_dft(m), photons, None, detector))

    def test_later_combination_over_budget_refused_at_the_call(self, monkeypatch):
        # The first combination (six distinguishable photons) is within the
        # budget; the second, whose last photon spreads over all six basis
        # functions, bounds 6000000 candidates.
        def no_work(*args):
            raise AssertionError("work ran before every combination was checked")

        monkeypatch.setattr(bosonspectra.oracle, "fock_evolve", no_work)
        monkeypatch.setattr(bosonspectra.sampling, "_probabilities_nonresolved", no_work)
        rows = np.eye(6)
        photons = [CoefficientSpectrum(row) for row in rows[:5]]
        photons.append(MixedPhotonSource(((0.5, CoefficientSpectrum(rows[5])),
                                          (0.5, CoefficientSpectrum(np.ones(6) / math.sqrt(6))))))
        with pytest.raises(CapacityError, match=f"6000000 terms, over {STATE_BUDGET}"):
            verify_chunks(make_dft(10), photons, None, "nonresolved")

    def test_summed_engine_work_over_budget_refused_at_the_call(self, monkeypatch):
        # Two combinations, psi twice (4 multiply-adds) and psi with an
        # orthogonal photon (8, its pair sum): each fits a budget of 11, not
        # both. As probability_chunks does, verify_chunks refuses their sum.
        def no_expansion(*args):
            raise AssertionError("fock_evolve ran before the work budget was checked")

        monkeypatch.setattr(bosonspectra.oracle, "fock_evolve", no_expansion)
        monkeypatch.setattr(bosonspectra.sampling, "_WORK_BUDGET", 11)
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        half = MixedPhotonSource(((0.5, psi), (0.5, GaussianWavepacket(40.0, 1.0, 0.0))))
        with pytest.raises(CapacityError, match="the query's 12 multiply-adds"):
            verify_chunks(Interferometer(np.eye(30)), [psi, half], None, "nonresolved", (1, 1) + (0,) * 28)

    def test_one_combination_over_budget_refused_before_the_expansion(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("fock_evolve ran before the work budget was checked")

        monkeypatch.setattr(bosonspectra.oracle, "fock_evolve", no_expansion)
        monkeypatch.setattr(bosonspectra.sampling, "_WORK_BUDGET", 3)
        with pytest.raises(CapacityError, match="exceed the work budget 3"):
            verify_against_oracle(make_beamsplitter_50_50(), hom_lambda(0.5))


def bits(x) -> tuple[str, str]:
    return float(x.real).hex(), float(x.imag).hex()


def assert_equals_reference(u, lam, inputs=None):
    """The array expansion equals the dict loop of tests/fock_reference.py bit for bit."""
    state = fock_evolve(u, lam, inputs)
    want = fock_reference.fock_amplitudes(u, lam, inputs or tuple(range(1, lam.n + 1)))
    assert list(state.amplitudes) == list(want)
    assert [bits(a) for a in state.amplitudes.values()] == [bits(a) for a in want.values()]
    table = fock_reference.marginals(want, u.m, lam.basis_size)
    assert [(sig, p.hex()) for sig, p in state._marginals.items()] == [
        (sig, float(p).hex()) for sig, p in table.items()
    ]
    return state


class TestFockReference:
    def test_random_gaussian_instances(self, rng):
        for trial in range(16):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 7))
            u = make_random_unitary(m, int(rng.integers(0, 10**6)))
            lam = lambda_from_photons(random_gaussians(rng, n))
            inputs = tuple(sorted(rng.choice(np.arange(1, m + 1), size=n, replace=False).tolist()))
            assert_equals_reference(u, lam, inputs)

    def test_dense_rows(self, rng):
        assert_equals_reference(make_random_unitary(4, 5), random_unit_rows(rng, 4, 3))
        assert_equals_reference(make_random_unitary(5, 6), random_unit_rows(rng, 3, 5), (2, 3, 5))

    def test_rank_deficient_lambda(self, rng):
        u = make_random_unitary(4, 21)
        assert_equals_reference(u, LambdaMatrix([[1, 0, 0], [1, 0, 0], [0, 0.6, 0.8]]))
        assert_equals_reference(u, LambdaMatrix(np.tile(random_unit_rows(rng, 1, 3).matrix, (3, 1))))

    def test_pruned_states_are_absent(self):
        # HOM: the (1, 1) amplitude cancels exactly and is pruned.
        state = assert_equals_reference(make_beamsplitter_50_50(), LambdaMatrix([[1.0], [1.0]]))
        assert list(state.amplitudes) == [(2, 0), (0, 2)]
        # DFT with identical photons: suppressed signatures never appear.
        for m in (3, 4):
            state = assert_equals_reference(make_dft(m), LambdaMatrix(np.ones((m, 1))))
            assert len(state.amplitudes) < math.comb(2 * m - 1, m)
        state = assert_equals_reference(make_dft(4), LambdaMatrix([[1, 0], [1, 0], [0, 1], [0, 1]]))
        assert len(state.amplitudes) < math.comb(8 + 3, 4)

    def test_zero_terms_skipped(self):
        # Two beamsplitters in a row leave exact zeros in U. A term that is
        # exactly 0 must not move its occupation earlier in the order.
        r = 1.0 / math.sqrt(2.0)
        first = np.array([[r, r, 0.0], [r, -r, 0.0], [0.0, 0.0, 1.0]])
        second = np.array([[r, 0.0, r], [0.0, 1.0, 0.0], [r, 0.0, -r]])
        u = Interferometer(second @ first)
        assert_equals_reference(u, hom_lambda(0.6), (1, 3))
        assert_equals_reference(u, LambdaMatrix(np.ones((3, 1))), (1, 2, 3))

    @pytest.mark.parametrize("detector", ["nonresolved", "resolved"])
    def test_mixture_combinations(self, rng, detector):
        g = random_gaussians(rng, 5)
        photons = [g[0], MixedPhotonSource(((0.3, g[1]), (0.7, g[2]))),
                   MixedPhotonSource(((0.6, g[3]), (0.4, g[4])))]
        u = make_random_unitary(4, 9)
        for _, lam in mixture_lambdas(photons, detector):
            assert_equals_reference(u, lam, (1, 2, 4))

    def test_shapes_past_the_old_caps(self):
        # Nine modes, and seven photons: shapes the budget admits.
        assert_equals_reference(make_dft(9), LambdaMatrix([[1.0]]))
        assert_equals_reference(make_dft(8), LambdaMatrix(np.ones((7, 1))))

    def test_sixty_bit_keys(self):
        # Ten photons, the most the key format holds: 10 * 6 = 60 bits.
        state = assert_equals_reference(make_random_unitary(10, 4), LambdaMatrix(np.ones((10, 1))))
        assert len(state.amplitudes) == math.comb(19, 10) == 92378
        # All ten photons in joint mode 9 fill the top of the tenth field.
        assert int(state.keys.max()) == sum(9 << 6 * p for p in range(10)) >= 2**57

    @pytest.mark.parametrize("m, nb, n", [(16, 4, 2), (64, 1, 3)])
    def test_sixty_four_joint_modes(self, rng, m, nb, n):
        # The most joint modes the key format holds. At m = 64, a signature
        # keyed as a base-(n + 1) number would wrap int64 and merge signatures.
        state = assert_equals_reference(make_random_unitary(m, 5), random_unit_rows(rng, n, nb))
        assert len(state.amplitudes) == math.comb(m * nb + n - 1, n)
        assert len(state._marginals) == math.comb(m + n - 1, n)

    def test_wide_keys(self, rng):
        # 48 joint modes: a base-(n + 1) key would need 4^48 = 2^96 values.
        state = assert_equals_reference(make_random_unitary(8, 17), random_unit_rows(rng, 3, 6))
        assert len(state.amplitudes) == math.comb(48 + 2, 3) == 19600
        assert len(set(state.keys.tolist())) == 19600


def _numpy_platform() -> str:
    features = np._core._multiarray_umath.__cpu_features__
    return f"numpy {np.__version__} on CPU features {sorted(f for f, on in features.items() if on)}"


def test_numpy_rounds_as_python_scalars(rng):
    # The properties the array expansion rests on, on the oracle's own
    # shapes: a state column times a coefficient row, and that times a
    # unitary column. If one fails, numpy's loops on this platform round
    # apart from Python's complex arithmetic, and the oracle's bits with them.
    def values(*shape):
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
        x.flat[:: 7] = 0.0
        x.flat[3 :: 11] = -0.0
        return x

    states, basis, modes = 600, 6, 8
    cr, ci = values(states, 1), values(states, 1)
    lr, li = values(basis), values(basis)
    ur, ui = values(modes), values(modes)
    tr, ti = _product(cr, ci, lr, li)
    ar, ai = _product(tr[:, :, None], ti[:, :, None], ur, ui)
    coeffs = [complex(r, i) for r, i in zip(cr.ravel().tolist(), ci.ravel().tolist())]
    row = [complex(r, i) for r, i in zip(lr.tolist(), li.tolist())]
    col = [complex(r, i) for r, i in zip(ur.tolist(), ui.tolist())]
    want = [c * x * y for c in coeffs for x in row for y in col]
    got = [complex(r, i) for r, i in zip(ar.ravel().tolist(), ai.ravel().tolist())]
    assert [bits(z) for z in got] == [bits(z) for z in want], (
        f"{_numpy_platform()}: products on real parts round apart from Python's complex product")
    assert np.hypot(ar, ai).ravel().tolist() == [abs(z) for z in want], (
        f"{_numpy_platform()}: np.hypot rounds apart from abs() of a Python complex")
    group = rng.integers(0, 997, ar.size)
    sums = [0.0] * 997
    for g, w in zip(group.tolist(), ar.ravel().tolist()):
        sums[g] += w
    assert [x.hex() for x in np.bincount(group, weights=ar.ravel(), minlength=997).tolist()] == [
        x.hex() for x in sums
    ], f"{_numpy_platform()}: np.bincount adds apart from sequential Python adds"
