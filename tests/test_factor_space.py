"""The factor-space measurements against the dense N^2 x N^2 route they replace in the analysis."""

import dataclasses
from importlib import resources

import numpy as np
import pytest

from eprkit import io as eprio
from eprkit.composite import anti_diagonal_index, lift, project_slot, slot_expectation, sum_observable
from eprkit.lab import build_scenario, run_epr_analysis
from eprkit.linalg import Observable, extract_c
from eprkit.states import PureState, project_outcomes
from helpers import (
    dense_epr_analysis,
    dense_epr_entries,
    packed_report,
    project_sum,
    random_hermitian,
    random_state_vector,
    reference_epr_analysis,
    reference_epr_entries,
)

# Largest move allowed between the two routes, relative to max(1, |x|).
ROUTE_TOL = 1e-12


def random_unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def scenario(rng, n, kind):
    """A random, equally spaced (maximally degenerate sums) or degenerate-B scenario."""
    a = random_hermitian(rng, n)
    b = random_hermitian(rng, n)
    if kind == "equal":
        u = random_unitary(rng, n)
        a = u @ np.diag(np.arange(n) - (n - 1) / 2) @ u.conj().T
    elif kind == "degenerate-b":
        u = random_unitary(rng, n)
        b = u @ np.diag([1.0, 1.0] + [0.0] * (n - 2)) @ u.conj().T
    return build_scenario(f"{kind}-{n}", a, b, random_state_vector(rng, n * n))


def assert_close(got, want, path="report"):
    """Every float within ROUTE_TOL * max(1, |x|); everything else equal."""
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= ROUTE_TOL * max(1.0, abs(want)), (path, got, want)
    else:
        assert got == want, (path, got, want)


def test_slot_products_are_the_kronecker_products():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eye = np.eye(n)
        assert np.allclose((p @ psi).reshape(-1), np.kron(p, eye) @ psi.reshape(-1), rtol=0, atol=1e-13)
        assert np.allclose((psi @ p.T).reshape(-1), np.kron(eye, p) @ psi.reshape(-1), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_projections_match_the_lifted_and_sum_projectors(n):
    rng = np.random.default_rng(40 + n)
    obs = Observable(random_hermitian(rng, n))
    a = Observable(random_hermitian(rng, n))
    vec = random_state_vector(rng, n * n)
    state, psi = PureState(vec, factor_dims=(n, n)), vec.reshape(n, n)
    for slot in (1, 2):
        probabilities, projected = project_slot(psi, obs, slot)
        dense_dist, dense_projected = project_outcomes(state, lift(obs, slot))
        assert obs.eigenvalues.tolist() == dense_dist.values.tolist()
        assert np.abs(probabilities - dense_dist.probabilities).max() <= 1e-14
        assert np.abs(projected.reshape(len(dense_projected), -1) - np.array(dense_projected)).max() <= 1e-14
        expected = state.expectation(lift(obs, slot).matrix)
        assert abs(slot_expectation(psi, obs, slot) - expected) <= 1e-14 * max(1.0, np.abs(obs.matrix).max())
    probabilities, projected = project_sum(psi, a)
    dense_dist, dense_projected = project_outcomes(state, sum_observable(a))
    assert list(anti_diagonal_index(a).sums) == dense_dist.values.tolist()
    assert np.abs(probabilities - dense_dist.probabilities).max() <= 1e-14
    assert np.abs(projected.reshape(len(dense_projected), -1) - np.array(dense_projected)).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 8])
def test_a_stack_of_states_measures_as_each_state_alone(n):
    # the leading axis of a stack changes no bit of any state's result
    rng = np.random.default_rng(60 + n)
    obs, a = Observable(random_hermitian(rng, n)), Observable(random_hermitian(rng, n))
    stack = np.array([random_state_vector(rng, n * n).reshape(n, n) for _ in range(4)])
    measurements = [lambda psi, slot=slot: project_slot(psi, obs, slot) for slot in (1, 2)]
    measurements += [lambda psi: project_sum(psi, a)]
    measurements += [lambda psi, slot=slot: (slot_expectation(psi, obs, slot),) for slot in (1, 2)]
    for measure in measurements:
        together = measure(stack)
        for i, psi in enumerate(stack):
            for joint, alone in zip(together, measure(psi)):
                assert joint[i].tobytes() == np.asarray(alone).tobytes()


def test_project_slot_rejects_a_third_slot():
    obs = Observable(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        project_slot(np.eye(2), obs, 3)
    with pytest.raises(ValueError):
        slot_expectation(np.eye(2), obs, 0)


CASES = [(n, kind) for n in range(2, 9) for kind in ("random", "equal")] + [(6, "degenerate-b")]


@pytest.mark.parametrize("n,kind", CASES)
def test_report_matches_the_dense_projector_route(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    sc = scenario(rng, n, kind)
    # the dense route gets its own scenario, so it shares no cached data with the analysis
    dense = dense_epr_analysis(build_scenario(sc.label, sc.obs_a.matrix, sc.obs_b.matrix, sc.initial_state.amplitudes))
    report = run_epr_analysis(sc)
    if kind == "degenerate-b":
        assert not sc.obs_b.is_nondegenerate
    assert len(report.per_sum) > 1 and report.chains
    # branch and chain keys as the report prints them
    got, want = eprio.analysis_to_payload(report), eprio.analysis_to_payload(dense)
    assert list(got["per_sum"]) == list(want["per_sum"])
    assert list(got["chains"]) == list(want["chains"])
    # every field
    assert_close(dataclasses.asdict(report), dataclasses.asdict(dense))


def assert_within(got, want, radius, path="report"):
    """Every float within ROUTE_TOL * max(1, |x|, radius); every other value equal and of the same type."""
    assert type(got) is type(want), (path, type(got), type(want))
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_within(got[key], want[key], radius, f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_within(g, w, radius, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= ROUTE_TOL * max(1.0, abs(want), radius), (path, got, want)
    else:
        assert got == want, (path, got, want)


BUNDLED = ("pauli_epr.json", "pauli_uniform.json", "spin_one.json")


def bundled(name):
    return eprio.scenario_from_json(resources.files("eprkit.scenarios").joinpath(name).read_text(encoding="utf-8"))


def scaled(n, factor):
    rng = np.random.default_rng([n, 12])
    sc = scenario(rng, n, "random")
    return build_scenario(f"scaled-{n}", sc.obs_a.matrix * factor, sc.obs_b.matrix, sc.initial_state.amplitudes)


def generated(n, kind):
    return scenario(np.random.default_rng([n, len(kind)]), n, kind)


IDENTITY_CASES = (
    [pytest.param(lambda name=name: bundled(name), id=name) for name in BUNDLED]
    + [pytest.param(lambda n=n, kind=kind: generated(n, kind), id=f"{kind}-{n}") for n, kind in CASES]
    + [pytest.param(lambda n=n, f=f: scaled(n, f), id=f"scaled-{n}-{f:g}") for n in (3, 5, 8) for f in (1e-12, 1e3)]
)


@pytest.mark.parametrize("make", IDENTITY_CASES)
def test_stacked_walk_is_bit_identical_to_the_state_by_state_loop(make):
    # the joint table rounds differently from the projected states, by a few ulps of the
    # spectral radius R: residuals such as the mean identity are differences of O(R) terms
    # each side gets its own scenario, so neither reads data the other cached
    want = reference_epr_analysis(make())
    sc = make()
    got = run_epr_analysis(sc)
    radius = max(float(np.abs(obs.eigenvalues).max()) for obs in (sc.obs_a, sc.obs_b, sc.obs_c))
    assert_within(dataclasses.asdict(got), dataclasses.asdict(want), radius)


ROW_CASES = IDENTITY_CASES[: len(BUNDLED)] + [
    pytest.param(lambda n=n, kind=kind: generated(n, kind), id=f"{kind}-{n}")
    for n, kind in ((3, "random"), (5, "equal"), (6, "degenerate-b"))
]


@pytest.mark.parametrize("entries", [dense_epr_entries, reference_epr_entries])
@pytest.mark.parametrize("make", ROW_CASES)
def test_report_rows_equal_the_branches_and_chains_it_was_packed_from(make, entries):
    # the oracles build one record per branch and chain, never through the report's record of lists
    sc = make()
    spectrum, branches, chains = entries(sc)
    report = packed_report(sc.label, spectrum, branches, chains)
    assert report.per_sum == tuple(branches)
    assert report.chains == tuple(chains)


def test_audits_weigh_the_diagonal_of_c_in_each_slot():
    # a declared C may miss [A, B]/(i alpha) within the commutation tolerance, so C' = V^H C V can keep a
    # small diagonal (here below the audits' slack, so every bound still holds): each audit weighs it with
    # its own slot's distribution, as the dense route does. For a consistent C the right-hand sides are
    # rounding noise on a true 0, which any weighting reproduces
    rng = np.random.default_rng(70)
    n = 4
    a, b = random_hermitian(rng, n), random_hermitian(rng, n)
    v = np.linalg.eigh(a)[1]
    c = extract_c(a, b, 1.0) + v @ np.diag(rng.uniform(-1.5e-10, 1.5e-10, n)) @ v.conj().T
    psi = random_state_vector(rng, n * n)
    report = run_epr_analysis(build_scenario("diagonal-c", a, b, psi, matrix_c=c))
    dense = dense_epr_analysis(build_scenario("diagonal-c", a, b, psi, matrix_c=c))
    assert_close(dataclasses.asdict(report), dataclasses.asdict(dense))
    assert max(branch.audit_slot1.rhs for branch in report.per_sum) > 1e-12
    assert max(branch.audit_slot2.rhs for branch in report.per_sum) > 1e-12
    assert max(chain.resolution.rhs for chain in report.chains) > 1e-12
