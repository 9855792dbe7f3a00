import gc
import math
import weakref
from collections import Counter
from importlib.resources import files

import numpy as np
import pytest

from eprkit import _kernels, cli, composite, conditional, lab, linalg, states
from eprkit import io as eprio
from eprkit.composite import anti_diagonal_index, collapse, lift, sum_observable
from eprkit.conditional import oracle_conditional
from eprkit.errors import DegenerateSpectrumError, DimensionMismatchError, SpectrumCoverageError
from eprkit.lab import (
    build_pauli_scenario,
    build_scenario,
    compare_empirical,
    path_key,
    run_epr_analysis,
    sample_chain,
)
from eprkit.lab import ShotRecord
from eprkit.linalg import Observable, extract_c
from eprkit.states import PureState, SpectrumFunction, project_outcomes
from helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    brute_sum_distribution,
    random_hermitian,
    random_state_vector,
    reference_sample_counts,
)

EPR_AMPLITUDES = [0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0]
BUNDLED = ["pauli_epr.json", "pauli_uniform.json", "spin_one.json"]


def bundled_and_random_scenarios():
    """The bundled scenario files, then one random scenario for each N = 2..5."""
    scenarios = [eprio.scenario_from_json((files("eprkit.scenarios") / name).read_text()) for name in BUNDLED]
    rng = np.random.default_rng(25)
    for n in range(2, 6):
        psi = random_state_vector(rng, n * n)
        scenarios.append(build_scenario(f"random-{n}", random_hermitian(rng, n), random_hermitian(rng, n), psi))
    return scenarios


def generic_scenario(rng, n: int):
    """A random scenario whose A has N distinct eigenvalues and no coincident pair sums."""
    a, b, psi = random_hermitian(rng, n), random_hermitian(rng, n), random_state_vector(rng, n * n)
    return build_scenario(f"generic-{n}", a, b, psi)


class TestScenarioConstruction:
    def test_pauli_builder_wires_the_triple(self):
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        assert sc.factor_dim == 2
        assert sc.alpha == 2.0
        assert np.allclose(sc.obs_c.matrix, PAULI_Y)
        assert sc.commutation_residual <= 1e-12

    def test_rejects_inconsistent_c(self):
        bad_c = PAULI_Y + 1e-3 * PAULI_Z
        with pytest.raises(ValueError):
            build_scenario("bad", PAULI_Z, PAULI_X, np.full(4, 0.5), alpha=2.0, matrix_c=bad_c)

    def test_derives_c_when_absent(self):
        sc = build_scenario("derived", PAULI_Z, PAULI_X, np.full(4, 0.5), alpha=2.0)
        assert np.allclose(sc.obs_c.matrix, PAULI_Y)

    @pytest.mark.parametrize(
        "alpha",
        [True, np.True_, "2", 2 + 0j, np.complex128(2), math.nan, math.inf, -math.inf, np.float32("inf"), 0]
        + [pytest.param(10**400, id="10**400")],
    )
    @pytest.mark.parametrize("matrix_c", [None, PAULI_Y])
    def test_rejects_alpha_that_is_no_finite_nonzero_real(self, alpha, matrix_c):
        # True was read as 1.0, "2" and 2 + 0j escaped as TypeError, and nan and inf were
        # reported as an overflowing commutator
        with pytest.raises(ValueError, match="alpha must be a finite nonzero real number"):
            build_scenario("alpha", PAULI_Z, PAULI_X, np.full(4, 0.5), alpha=alpha, matrix_c=matrix_c)

    @pytest.mark.parametrize("alpha", [2, 2.0, np.int64(2), np.float64(2.0), np.float32(2.0), np.uint8(2)])
    def test_accepts_any_real_alpha_as_a_float(self, alpha):
        sc = build_scenario("alpha", PAULI_Z, PAULI_X, np.full(4, 0.5), alpha=alpha, matrix_c=PAULI_Y)
        assert type(sc.alpha) is float and sc.alpha == 2.0

    def test_rejects_zero_amplitudes(self):
        with pytest.raises(ValueError):
            build_pauli_scenario([0.0, 0.0, 0.0, 0.0])

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(DimensionMismatchError):
            build_pauli_scenario([1.0, 0.0])


class TestRunEprAnalysis:
    def test_two_branch_worked_example(self):
        report = run_epr_analysis(build_pauli_scenario(EPR_AMPLITUDES))
        assert report.sum_spectrum.probability_of(0.0) == pytest.approx(1.0, abs=1e-12)

        branch = report.branch_for(0.0)
        assert branch.a1.mean == pytest.approx(0.6, abs=1e-12)
        assert branch.a1.stdev == pytest.approx(0.8, abs=1e-12)
        assert branch.a2.mean == pytest.approx(-0.6, abs=1e-12)
        assert branch.a2.stdev == pytest.approx(0.8, abs=1e-12)
        assert branch.sum_constraint.mean_identity_residual <= 1e-12
        assert branch.sum_constraint.stdev_gap <= 1e-12
        for summary in (branch.b1, branch.b2):
            assert summary.mean == pytest.approx(0.0, abs=1e-12)
            assert summary.stdev == pytest.approx(1.0, abs=1e-12)
        for summary in (branch.c1, branch.c2):
            assert summary.mean == pytest.approx(0.0, abs=1e-12)
        assert branch.schmidt_rank == 2
        for audit in (branch.audit_slot1, branch.audit_slot2):
            assert audit.delta_a * audit.delta_b == pytest.approx(0.8, abs=1e-10)
            assert audit.rhs <= 1e-10
            assert audit.satisfied

        chain = report.chain_for(0.0, 1.0)
        assert chain.a2_value == -1.0
        assert chain.conditional_probability == pytest.approx(0.8, abs=1e-12)
        assert chain.a2_predicted == pytest.approx(-1.0, abs=1e-12)
        assert chain.a2_stdev <= 1e-10
        assert chain.point_mass_residual <= 1e-12
        assert chain.resolution.rhs <= 1e-10

    def test_uniform_scenario(self):
        report = run_epr_analysis(build_pauli_scenario([0.5, 0.5, 0.5, 0.5]))
        assert report.sum_spectrum.probabilities == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        branch = report.branch_for(0.0)
        assert branch.a1.mean == pytest.approx(0.0, abs=1e-12)
        assert branch.a1.stdev == pytest.approx(1.0, abs=1e-12)
        chain = report.chain_for(0.0, 1.0)
        assert chain.a2_predicted == pytest.approx(-1.0, abs=1e-12)
        assert chain.a2_stdev <= 1e-10
        assert chain.resolution.rhs <= 1e-10

    def test_product_state_single_branch(self):
        report = run_epr_analysis(build_pauli_scenario([1.0, 0.0, 0.0, 0.0]))
        assert len(report.per_sum) == 1
        assert report.per_sum[0].s_value == 2.0
        chain = report.chain_for(2.0, 1.0)
        assert chain.a2_predicted == pytest.approx(1.0, abs=1e-12)

    def test_random_scenarios_hold_all_invariants(self):
        # N = 2..8 reaches the composite-dimension envelope of 64
        rng = np.random.default_rng(80)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            psi = random_state_vector(rng, n * n)
            sc = build_scenario(f"random-{trial}", a, b, psi)
            report = run_epr_analysis(sc)

            # the oracle gets its own Observable, so it shares no cached spectral data with the analysis
            fresh_a = Observable(a)
            oracle = oracle_conditional(
                PureState(psi, factor_dims=(n, n)), fresh_a, SpectrumFunction.identity(fresh_a.eigenvalues)
            )
            brute = brute_sum_distribution(psi, a)
            scale = max(1.0, float(np.abs(fresh_a.eigenvalues).max()))
            assert [branch.s_value for branch in report.per_sum] == pytest.approx(list(oracle.sums), abs=1e-9 * scale)
            for value, prob in report.sum_spectrum.outcomes:
                key = min(brute, key=lambda s: abs(s - value))
                assert abs(key - value) <= 1e-8 * scale
                assert prob == pytest.approx(brute[key], abs=1e-10)
            for branch in report.per_sum:
                assert branch.probability == report.sum_spectrum.probability_of(branch.s_value)
                assert branch.a1.mean == pytest.approx(oracle.value_at(branch.s_value), abs=1e-9 * scale)
                assert branch.audit_slot1.satisfied
                assert branch.audit_slot2.satisfied
                assert branch.sum_constraint.mean_identity_residual <= 1e-10
                assert branch.sum_constraint.stdev_gap <= 1e-10
            for chain in report.chains:
                assert chain.a2_stdev <= 1e-10
                assert chain.resolution.rhs <= 1e-10
                assert chain.resolution.satisfied

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_audits_hold_along_a_scale_axis(self, scale):
        # A and B scaled by s scale C by s^2. On a branch with one pair delta A is 0 and the bound's
        # |C'_nn| / 2 rounds to about eps * |C|: with an absolute slack of 1e-10, every one of these
        # scenarios raised ScenarioInvariantError at s = 1e3 and 1e6
        rng = np.random.default_rng(81)
        for trial in range(15):
            n = int(rng.integers(2, 9))
            a, b = random_hermitian(rng, n) * scale, random_hermitian(rng, n) * scale
            sc = build_scenario(f"scaled-{trial}", a, b, random_state_vector(rng, n * n))
            report = run_epr_analysis(sc)
            c_max = max(1.0, float(np.abs(sc.obs_c.matrix).max()))
            for branch in report.per_sum:
                assert branch.audit_slot1.satisfied and branch.audit_slot2.satisfied
            for chain in report.chains:
                assert chain.resolution.rhs <= 1e-12 * c_max
                assert chain.resolution.satisfied

    def test_sum_constraint_is_taken_from_the_printed_moments(self):
        # each residual is recomputed from the means and stdevs the report prints, bit for bit
        rng = np.random.default_rng(1)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            a, b, psi = random_hermitian(rng, n), random_hermitian(rng, n), random_state_vector(rng, n * n)
            report = run_epr_analysis(build_scenario(f"random-{trial}", a, b, psi))
            for branch in report.per_sum:
                a1, a2 = branch.a1, branch.a2
                assert branch.sum_constraint.mean_identity_residual == abs(a2.mean - (branch.s_value - a1.mean))
                assert branch.sum_constraint.stdev_gap == abs(a1.stdev - a2.stdev)

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda r: r.branch_for(0.5),
            lambda r: r.branch_for(math.nan),
            lambda r: r.chain_for(0.0, 0.0),
            lambda r: r.chain_for(2.0, 1.0),
            lambda r: r.chain_for(math.nan, 1.0),
            lambda r: r.chain_for(0.0, math.nan),
        ],
        ids=["branch-miss", "branch-nan", "chain-miss", "chain-unpopulated", "chain-nan-s", "chain-nan-a1"],
    )
    def test_lookup_miss_is_spectrum_coverage_error(self, lookup):
        report = run_epr_analysis(build_pauli_scenario(EPR_AMPLITUDES))
        with pytest.raises(SpectrumCoverageError):
            lookup(report)

    def test_spectral_data_is_built_once_per_scenario(self, monkeypatch):
        n = 8
        rng = np.random.default_rng(8)
        sc = build_scenario("guard", random_hermitian(rng, n), random_hermitian(rng, n), random_state_vector(rng, n * n))

        # the walk takes every eigenvalue by position, so no module may match one by value
        def no_match(*args):
            raise AssertionError("match_value called during the analysis")

        for module in (linalg, composite, conditional, states):
            monkeypatch.setattr(module, "match_value", no_match)

        # the analysis measures on N x N coefficient matrices: no function of the dense
        # route runs, and the sum index is built once per scenario
        calls = Counter()
        watched = {
            "lift": composite,
            "sum_observable": composite,
            "tensor_product": linalg,
            "project_outcomes": states,
            "post_measurement_state": composite,
            "anti_diagonals": composite,
        }
        for name, home in watched.items():
            original = getattr(home, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (linalg, states, composite, conditional, lab):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)

        built = []
        original_init = Observable.__init__

        def counting_init(self, matrix):
            original_init(self, matrix)
            built.append(self.dim)

        eigh_dims = Counter()
        original_eigh = np.linalg.eigh

        def counting_eigh(h):
            eigh_dims[np.shape(h)[0]] += 1
            return original_eigh(h)

        stacks = []
        original_stack = np.stack

        def counting_stack(arrays, *args, **kwargs):
            stacks.append(len(arrays))
            return original_stack(arrays, *args, **kwargs)

        # the walk reads A's distributions, the Schmidt ranks and the chains off the joint table |K|^2:
        # it measures only B and C on both slots of the stack of branch states, whose calls do not grow
        # with the number of branches and chains, and it projects no stack of chain states
        measured = Counter()
        measured_states = []
        for name in ("project_slot", "slot_expectation", "schmidt_rank"):
            original = getattr(composite, name)

            def counting_measure(*args, _name=name, _original=original, **kwargs):
                measured[_name] += 1
                measured_states.append(len(args[0]))
                return _original(*args, **kwargs)

            for module in (composite, conditional, states, lab):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting_measure)
        svd_calls = []
        original_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            svd_calls.append(np.shape(args[0]))
            return original_svd(*args, **kwargs)

        monkeypatch.setattr(Observable, "__init__", counting_init)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np, "stack", counting_stack)
        report = run_epr_analysis(sc)
        per_analysis = measured.copy()
        assert per_analysis == Counter({"project_slot": 4})
        assert not hasattr(composite, "project_sum") and svd_calls == []
        assert len(report.per_sum) > 1 and len(report.chains) > n
        assert measured_states == [len(report.per_sum)] * 4
        assert calls == Counter({"anti_diagonals": 1})
        # no observable is built at all, so none of composite dimension N^2
        assert built == []
        # only the factors A, B and C are diagonalised, each once; B and C stack their projectors once, A never
        assert eigh_dims == Counter({n: 3})
        assert stacks == [n, n]
        assert "projectors" not in vars(sc.obs_a)
        cached = [obs.projectors for obs in (sc.obs_b, sc.obs_c)]

        # a second analysis of the same scenario reuses the index, the stacks and the decompositions
        run_epr_analysis(sc)
        assert calls == Counter({"anti_diagonals": 1})
        assert eigh_dims == Counter({n: 3}) and stacks == [n, n] and built == []
        assert all(obs.projectors is stack for obs, stack in zip((sc.obs_b, sc.obs_c), cached))

        # a degenerate B stacks its two lines: B and C stack one projector per line, and no N^2-size work runs
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        b = u @ np.diag([1.0, 1.0] + [0.0] * (n - 2)) @ u.conj().T
        degenerate = build_scenario("degenerate-b", sc.obs_a.matrix, b, random_state_vector(rng, n * n))
        built.clear()
        eigh_dims.clear()
        stacks.clear()
        assert not degenerate.obs_b.is_nondegenerate
        run_epr_analysis(degenerate)
        assert calls == Counter({"anti_diagonals": 2})
        assert built == [] and eigh_dims == Counter({n: 3})
        factors = (degenerate.obs_b, degenerate.obs_c)
        assert sorted(stacks) == sorted(len(obs.multiplicities) for obs in factors)
        assert len(degenerate.obs_b.multiplicities) == 2

        # N=3 walks a handful of branches and chains, N=8 dozens, with the same measurement calls
        small = build_scenario("guard-3", random_hermitian(rng, 3), random_hermitian(rng, 3), random_state_vector(rng, 9))
        measured.clear()
        measured_states.clear()
        small_report = run_epr_analysis(small)
        assert len(small_report.chains) < len(report.chains)
        assert measured == per_analysis

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_analysis_is_invariant_under_scaling_a(self, n):
        # grouping tolerances scale with the spectrum: A*s has the branches and chains of A
        rng = np.random.default_rng(100 + n)
        a, b, psi = random_hermitian(rng, n), random_hermitian(rng, n), random_state_vector(rng, n * n)
        base = run_epr_analysis(build_scenario("base", a, b, psi))
        radius = float(np.abs(np.linalg.eigvalsh(a)).max())
        for s in (1e-12, 1e-9, 1e3):
            sc = build_scenario("scaled", a * s, b, psi)
            scaled = run_epr_analysis(sc)
            assert len(scaled.per_sum) == len(base.per_sum)
            assert len(scaled.chains) == len(base.chains)
            # lookups and the oracle work at the scenario's own scale
            for branch in scaled.per_sum:
                assert scaled.branch_for(branch.s_value) is branch
            for chain in scaled.chains:
                assert scaled.chain_for(chain.s_value, chain.a1_value) is chain
            oracle = oracle_conditional(sc.initial_state, sc.obs_a, SpectrumFunction.identity(sc.obs_a.eigenvalues))
            assert len(oracle.entries) == len(scaled.per_sum)
            scaled_value = lambda x: pytest.approx(s * x, rel=1e-9, abs=1e-9 * s * radius)  # noqa: E731
            for got, want in zip(scaled.per_sum, base.per_sum):
                assert got.s_value == scaled_value(want.s_value)
                assert got.a1.mean == scaled_value(want.a1.mean)
                assert got.probability == pytest.approx(want.probability, rel=1e-9, abs=1e-12)
            for got, want in zip(scaled.chains, base.chains):
                assert got.a1_value == scaled_value(want.a1_value)
                assert got.conditional_probability == pytest.approx(want.conditional_probability, rel=1e-9, abs=1e-12)

    def test_rejects_a_whose_merged_sums_leave_a2_unpinned(self):
        # the gap 1.5e-9 resolves A, but within the pair sums' tolerance of 2e-9
        # (0, 1) and (0, 2) land on one sum line, so observing a_0 there pins no a_m
        rng = np.random.default_rng(1)
        sc = build_scenario("near", np.diag([-1.0, 0.0, 1.5e-9]), random_hermitian(rng, 3), random_state_vector(rng, 9))
        with pytest.raises(DegenerateSpectrumError, match="pins no A"):
            run_epr_analysis(sc)

    def test_cached_spectral_data_is_freed_with_the_scenario(self):
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        run_epr_analysis(sc)
        compare_empirical(sample_chain(sc, 100, seed=1), sc)
        refs = [weakref.ref(sc), weakref.ref(anti_diagonal_index(sc.obs_a))]
        refs += [weakref.ref(obs.projectors) for obs in (sc.obs_a, sc.obs_b, sc.obs_c)]
        # with the cycle collector off, only reference counting can free them
        gc.disable()
        try:
            del sc
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestSampleChain:
    def test_identical_seed_identical_record(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        first = sample_chain(sc, 5000, seed=7)
        second = sample_chain(sc, 5000, seed=7)
        assert first == second

    def test_single_shot(self):
        record = sample_chain(build_pauli_scenario(EPR_AMPLITUDES), 1, seed=3)
        assert record.shots == 1
        assert len(record.counts) == 1
        assert record.counts[0][1] == 1

    def test_deterministic_scenario_one_path(self):
        record = sample_chain(build_pauli_scenario([1.0, 0.0, 0.0, 0.0]), 500, seed=11)
        assert record.counts == (((2.0, 1.0, 1.0), 500),)

    def test_frequencies_concentrate(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        record = sample_chain(sc, 100000, seed=19)
        freq = record.empirical[(0.0, 1.0, -1.0)]
        assert abs(freq - 0.8) < 0.02

    def test_chain_tables_equal_the_projector_route_within_rounding(self):
        # p(s_k) adds |K|^2 over the line and p(a1 | s_k) divides by it, where the
        # N^2 x N^2 projectors take squared norms: the two round differently by a few
        # ulps (1.1e-16 on the bundled pauli_uniform). The analysis's agreement with
        # eprkit.conditional is pinned bit for bit in test_conditional.py.
        for sc in bundled_and_random_scenarios():
            tol = 16 * sc.factor_dim * np.finfo(float).eps
            sum_cdf, cond_cdf, listed, analytic, paths = sc.chain_tables
            index = anti_diagonal_index(sc.obs_a)
            a_values = sc.obs_a.eigenvalues.tolist()
            dense, projected = project_outcomes(sc.initial_state, sum_observable(sc.obs_a))
            populated = [k for k, (_, p) in enumerate(dense.outcomes) if p >= composite.ZERO_PROB_THRESHOLD]
            assert sum_cdf.shape == (len(populated),)
            assert listed.shape == cond_cdf.shape and cond_cdf.shape[0] == len(populated)
            assert np.abs(sum_cdf - np.cumsum(dense.probabilities[populated])).max() <= tol
            dense_paths, dense_analytic = [], []
            for row, k in enumerate(populated):
                branch = collapse(sc.initial_state, projected[k], dense.outcomes[k][1])
                a1 = project_outcomes(branch, lift(sc.obs_a, 1))[0]
                # the row lists the chains the dense route keeps, in the order of the line's pairs
                pairs = [(n, m) for n, m in index.sets[k] if a1.probabilities[n] >= composite.ZERO_PROB_THRESHOLD]
                width = len(pairs)
                cond = a1.probabilities[[n for n, _ in pairs]]
                s_value = float(dense.values[k])
                dense_paths += [(s_value, a_values[n], a_values[m]) for n, m in pairs]
                dense_analytic += (dense.probabilities[k] * cond).tolist()
                assert np.abs(cond_cdf[row, :width] - np.cumsum(cond)).max() <= tol
                # nothing past the row's chains: no cell listed, and the cdf stays at 1.0 from its last chain on
                assert listed[row].tolist() == [j < width for j in range(listed.shape[1])]
                assert (cond_cdf[row, width - 1 :] == 1.0).all()
            assert list(paths) == dense_paths
            assert np.abs(np.array(analytic) - dense_analytic).max() <= tol
            assert cond_cdf.shape[1] == max(listed.sum(axis=1))

    def test_counts_equal_the_reference_on_the_n_wide_table(self):
        # a generic A's branches hold at most two chains, so the sampler's table is 2 wide, not N;
        # padding each row to N columns (the table it replaced) moves no draw
        rng = np.random.default_rng(61)
        for n, shots, seed in ((3, 20_000, 9), (5, 9_973, 2**64 - 1), (8, 20_000, 12345)):
            sc = generic_scenario(rng, n)
            assert sc.chain_tables[1].shape[1] == 2 < n
            table = sc.branch_table
            chains = np.bincount(table.pairs[0, table.chains], minlength=table.kept.size)[:, None]
            listed = np.arange(n) < chains
            cond = np.zeros(listed.shape)
            cond[listed] = table.weights[table.chains]
            cond_cdf = np.cumsum(np.clip(cond, 0.0, 1.0), axis=1)
            cond_cdf[np.arange(n) >= chains - 1] = 1.0
            sum_cdf = np.cumsum(np.clip(table.sum_probabilities[table.kept], 0.0, 1.0))
            sum_cdf[-1] = 1.0
            expected = reference_sample_counts(seed, shots, sum_cdf, cond_cdf)[listed].tolist()
            paths = [(c.s_value, c.a1_value, c.a2_value) for c in sc.analysis.chains]
            record = sample_chain(sc, shots, seed)
            assert record.counts == tuple((path, count) for path, count in zip(paths, expected) if count)

    def test_generic_n8_is_sampled_from_a_two_wide_table(self, monkeypatch):
        # at width N = 8 the kernel spent bits on the first-factor level that the sum level needs:
        # (g, h) = (8, 6) left 14.5% of 2,000,000 shots in split cells on one such table, (10, 4) 8.7%
        widths = []
        original = _kernels.sample_counts

        def spy(seed, shots, sum_cdf, cond_cdf):
            widths.append(cond_cdf.shape)
            return original(seed, shots, sum_cdf, cond_cdf)

        monkeypatch.setattr(_kernels, "sample_counts", spy)
        rng = np.random.default_rng(62)
        sc = generic_scenario(rng, 8)
        sample_chain(sc, 1000, seed=1)
        assert widths == [(36, 2)]
        assert _kernels._cell_bits(36, 2, 2_000_000) == (10, 4)
        assert _kernels._cell_bits(36, 8, 2_000_000) == (8, 6)

    def test_rejects_bad_shots(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        # shots=True sampled one shot, and a count past MAX_SHOTS ran for longer than any run can wait
        for bad in (0, -5, 2.5, 1000.0, "1000", True, lab.MAX_SHOTS + 1, 10**5000):
            with pytest.raises(ValueError, match=rf"^shots must be an integer in \[1, {lab.MAX_SHOTS}\], got "):
                sample_chain(sc, bad)

    @pytest.mark.parametrize(
        "value, shown",
        [(10**5000, "an integer of 16610 bits"), (-(2**200), "a negative integer of 201 bits"), (2**64, str(2**64))],
        ids=["past-the-digit-limit", "negative", "65-bits"],
    )
    def test_refusal_shows_a_short_value(self, value, shown):
        # repr of an int past 4,300 digits raises Python's digit-limit error in place of the check's own
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        with pytest.raises(ValueError) as refused:
            sample_chain(sc, 10, seed=value)
        assert str(refused.value) == f"seed must be an integer in [0, {lab.MAX_SEED}], got {shown}"

    def test_rejects_bad_seed(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        # a seed of 2.7 sampled seed 2, and "12" seed 12
        for bad in (2**64, -1, 2.7, 2.0, "12", True):
            with pytest.raises(ValueError):
                sample_chain(sc, 10, seed=bad)

    def test_accepts_numpy_integer_shots_and_seeds(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        record = sample_chain(sc, np.int32(500), seed=np.uint64(2**64 - 1))
        assert record == sample_chain(sc, 500, seed=2**64 - 1)
        assert type(record.shots) is int and type(record.seed) is int

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError):
            ShotRecord(scenario_label="x", seed=0, shots=5, counts=(((0.0, 1.0, -1.0), 4),))

    @pytest.mark.parametrize(
        "shots, counts",
        [
            (0, ()),
            (100.0, (((0.0, 1.0, -1.0), 100),)),
            (100, (((0.0, 1.0, -1.0), 150), ((0.0, -1.0, 1.0), -50))),
            (100, (((0.0, 1.0, -1.0), 99.5), ((0.0, -1.0, 1.0), 0.5))),
            (100, (((0.0, 1.0, -1.0), 50), ((0.0, 1.0, -1.0), 50))),
            (100, (((0.0, 1.0, -1.0), 80), ((0.0, 1.0 + 1e-14, -1.0), 0), ((0.0, -1.0, 1.0), 20))),
            (True, (((0.0, 1.0, -1.0), 1),)),
            (2, (((0.0, 1.0, -1.0), True), ((0.0, -1.0, 1.0), True))),
            (lab.MAX_SHOTS + 1, (((0.0, 1.0, -1.0), lab.MAX_SHOTS + 1),)),
        ],
        ids=["zero-shots", "float-shots", "negative-count", "fractional-count", "repeated-path", "same-path-key",
             "bool-shots", "bool-counts", "beyond-max-shots"],
    )
    def test_rejects_records_that_misstate_their_shots(self, shots, counts):
        # each gave a wrong comparison: an infinite 3-sigma band from dividing by zero shots,
        # an empirical frequency of -0.5, or a path read at half (or none) of its frequency
        with pytest.raises(ValueError):
            ShotRecord(scenario_label="pauli-pair", seed=0, shots=shots, counts=counts)

    @pytest.mark.parametrize(
        "seed", [-5, 2**64, 2.0, "0", False], ids=["negative", "beyond-64-bits", "float", "str", "bool"]
    )
    def test_rejects_records_whose_seed_no_sampler_takes(self, seed):
        with pytest.raises(ValueError):
            ShotRecord(scenario_label="pauli-pair", seed=seed, shots=100, counts=(((0.0, 1.0, -1.0), 100),))

    def test_accepts_max_shots(self):
        record = ShotRecord(scenario_label="x", seed=0, shots=lab.MAX_SHOTS, counts=(((0.0, 1.0, -1.0), lab.MAX_SHOTS),))
        assert record.empirical == {(0.0, 1.0, -1.0): 1.0}

    def test_accepts_numpy_integer_counts(self):
        record = ShotRecord(
            scenario_label="pauli-pair", seed=0, shots=np.int64(100), counts=(((0.0, 1.0, -1.0), np.int64(100)),)
        )
        assert record.empirical == {(0.0, 1.0, -1.0): 1.0}


class TestCompareEmpirical:
    def test_deterministic_scenario_zero_deviation(self):
        sc = build_pauli_scenario([1.0, 0.0, 0.0, 0.0])
        record = sample_chain(sc, 1000, seed=5)
        comparison = compare_empirical(record, sc)
        assert comparison.max_abs_deviation == 0.0
        assert comparison.within_3sigma

    def test_large_sample_within_bounds(self):
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        record = sample_chain(sc, 100000, seed=42)
        comparison = compare_empirical(record, sc)
        assert comparison.within_3sigma
        assert comparison.max_abs_deviation < 0.01

    def test_chain_tables_are_built_once_for_sampling_and_comparison(self, monkeypatch, tmp_path, capsys):
        calls = []
        original = lab._chain_distributions

        def counting(sc):
            calls.append(sc)
            return original(sc)

        analyses = []
        original_analysis = lab.run_epr_analysis

        def counting_analysis(sc):
            analyses.append(sc)
            return original_analysis(sc)

        def no_conditional_distribution(*args):
            raise AssertionError("sampling tables must be read off the analysis")

        monkeypatch.setattr(lab, "_chain_distributions", counting)
        monkeypatch.setattr(lab, "run_epr_analysis", counting_analysis)
        for module in (lab, conditional):
            monkeypatch.setattr(module, "conditional_distribution", no_conditional_distribution, raising=False)
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        record = sample_chain(sc, 1000, seed=3)
        compare_empirical(record, sc)
        sample_chain(sc, 1000, seed=4)
        assert calls == [sc]
        assert analyses == [sc]

        # `epr sample` analyzes its scenario once for the report, the tables and the comparison
        path = tmp_path / "uniform.json"
        path.write_text(eprio.scenario_to_json(sc), encoding="utf-8")
        assert cli.main(["sample", str(path), "--shots", "1000"]) == 0
        capsys.readouterr()
        assert len(analyses) == 2 and len(calls) == 2

    def test_label_mismatch_rejected(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES, label="one")
        other = build_pauli_scenario(EPR_AMPLITUDES, label="two")
        record = sample_chain(sc, 100, seed=1)
        with pytest.raises(ValueError):
            compare_empirical(record, other)

    def test_sum_marginal_converges_across_seeds(self):
        # 3-sigma binomial band per sum outcome, checked over 100 fixed seeds
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        shots = 10000
        analytic = {-2.0: 0.25, 0.0: 0.5, 2.0: 0.25}
        passes = 0
        for seed in range(100):
            record = sample_chain(sc, shots, seed=seed)
            marginal: dict[float, float] = {}
            for (s_origin, _, _), count in record.counts:
                marginal[s_origin] = marginal.get(s_origin, 0.0) + count / shots
            ok = all(
                abs(marginal.get(s, 0.0) - p) <= 3.0 * math.sqrt(p * (1 - p) / shots)
                for s, p in analytic.items()
            )
            passes += ok
        assert passes >= 99


def test_path_key_uses_twelve_significant_digits():
    assert path_key(0.0, 1.0, -1.0) == "0,1,-1"
    assert path_key(1 / 3, 2 / 3, 1.0) == "0.333333333333,0.666666666667,1"
