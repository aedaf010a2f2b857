import json
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from qvlab.engine import Gate, MeasurementRule, StateVector, apply_gate, marginal_distribution
from qvlab.linalg import PEqualsTwo
from qvlab.protocols import (ANTIPODAL_NOTE, build_discrimination_setup,
                             discrimination_bound_check,
                             discrimination_distribution, discrimination_error,
                             discrimination_error_closed_form,
                             discrimination_q, option_i_ensembles,
                             option_i_monte_carlo, option_i_pairs_needed,
                             sample_discrimination, signalling_multistate_ii,
                             signalling_option_i, signalling_option_ii,
                             steering_map, total_variation)


def test_setup_geometry():
    for d in (5, 101):
        setup = build_discrimination_setup(d, 4.0)
        assert np.allclose(np.linalg.norm(setup.states, axis=1), 1.0, atol=1e-12)
        assert np.allclose(setup.unitary @ setup.unitary.T, np.eye(d), atol=1e-12)
        k = np.arange(d)
        assert np.allclose(setup.unitary[:, 0], math.sqrt(2 / d) * np.cos(np.pi * k / d))
        assert np.allclose(setup.unitary[:, 1], math.sqrt(2 / d) * np.sin(np.pi * k / d))
        assert "sqrt(2)" in setup.note


def test_setup_rejections():
    with pytest.raises(ValueError):
        build_discrimination_setup(1, 4.0)
    with pytest.raises(ValueError):
        build_discrimination_setup(4, 0.0)


def test_distribution_is_shifted_cosine():
    # at d=101, p=1024 every amplitude^p underflows; the distribution must not
    for d, p, j in ((5, 3.0, 2), (101, 1024.0, 0)):
        setup = build_discrimination_setup(d, p)
        dist = discrimination_distribution(setup, j)
        k = np.arange(d)
        raw = np.abs(np.cos(np.pi * (k - j) / d)) ** p
        assert np.all(np.isfinite(dist))
        assert np.allclose(dist, raw / raw.sum(), atol=1e-12)
        assert discrimination_error(setup, j) == pytest.approx(
            discrimination_error_closed_form(d, p), abs=1e-12)


def test_error_three_states_p4():
    setup = build_discrimination_setup(3, 4.0)
    for j in range(3):
        assert discrimination_error(setup, j) == pytest.approx(1 / 9, abs=1e-14)
    assert discrimination_error_closed_form(3, 4.0) == pytest.approx(1 / 9, abs=1e-14)
    assert discrimination_q(3, 4.0) == pytest.approx(1 / 8, abs=1e-15)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_error_independent_of_true_state(d):
    setup = build_discrimination_setup(d, 4.0)
    errors = [discrimination_error(setup, j) for j in range(d)]
    assert max(errors) - min(errors) < 1e-12
    assert errors[0] == pytest.approx(discrimination_error_closed_form(d, 4.0), abs=1e-12)


def test_error_nonincreasing_in_p():
    errs = [discrimination_error_closed_form(5, p)
            for p in (1, 2, 4, 8, 16, 64, 256, 1024)]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-12


def test_even_d_also_works():
    setup = build_discrimination_setup(4, 6.0)
    assert discrimination_error(setup, 1) == pytest.approx(
        discrimination_error_closed_form(4, 6.0), abs=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
@pytest.mark.parametrize("p", [2.0, 4.0, 64.0])
def test_bound_check_passes(d, p):
    report = discrimination_bound_check(d, p)
    assert report.passed
    assert report.residuals["margin"] >= 0.0
    assert report.residuals["error"] == pytest.approx(
        discrimination_error_closed_form(d, p), abs=1e-12)


def test_bound_check_rejects_even_d():
    with pytest.raises(ValueError):
        discrimination_bound_check(4, 4.0)


def test_sampling_cross_check():
    setup = build_discrimination_setup(5, 4.0)
    out = sample_discrimination(setup, 2, trials=20_000, seed=7)
    again = sample_discrimination(setup, 2, trials=20_000, seed=7)
    assert out == again
    assert out["within_3_sigma"]


def test_distribution_matches_engine_simulation():
    """Padding the qubit into a 2-qubit register and gating must agree."""
    d, p = 4, 4.0
    setup = build_discrimination_setup(d, p)
    for j in range(d):
        amps = np.zeros(4, dtype=complex)
        amps[:2] = setup.states[j]       # second qubit carries the state
        state = StateVector(amps)
        out = apply_gate(state, Gate(setup.unitary, name="fan"), [0, 1])
        dist = marginal_distribution(out, [0, 1], MeasurementRule(p))
        assert np.allclose(dist, discrimination_distribution(setup, j), atol=1e-12)


def test_option_ii_closed_form():
    for eps in np.linspace(0.0, 1.0, 11):
        report = signalling_option_ii(float(eps))
        want = (1 - eps ** 2) / (1 + eps ** 2)
        assert report.tvd == pytest.approx(want, abs=1e-12)
        assert report.extras["tvd_closed_form"] == pytest.approx(want, abs=1e-15)
        assert np.allclose(report.distributions["bit0"],
                           [1 / (1 + eps ** 2), eps ** 2 / (1 + eps ** 2)], atol=1e-12)


def test_option_ii_endpoints():
    perfect = signalling_option_ii(0.0)
    assert perfect.tvd == pytest.approx(1.0, abs=1e-12)
    assert perfect.bits == 1.0
    silent = signalling_option_ii(1.0)
    assert silent.tvd == pytest.approx(0.0, abs=1e-12)
    assert silent.bits == 0.0
    with pytest.raises(ValueError):
        signalling_option_ii(1.5)
    with pytest.raises(ValueError):
        signalling_option_ii(-0.1)


def test_steering_map_rows():
    theta, eps = 0.8, 0.01
    m = steering_map(theta, eps)
    assert np.allclose(m[0], [math.cos(theta), math.sin(theta)])
    assert np.allclose(m[1], [-eps * math.sin(theta), eps * math.cos(theta)])
    assert np.linalg.det(m) == pytest.approx(eps, abs=1e-15)


def test_multistate_reads_two_bits():
    # p = 4 on four states sits exactly at the 2/3 success boundary, so the
    # steering residual tips it; p = 6 clears it with error 1/5
    report = signalling_multistate_ii(4, 6.0, epsilon=1e-3)
    assert report.bits == 2.0
    assert report.extras["worst_success"] >= 2 / 3
    assert report.extras["worst_success"] == pytest.approx(4 / 5, abs=1e-4)
    assert report.extras["state_residual"] == pytest.approx(1e-6 / (1 + 1e-6))
    for dist in report.distributions.values():
        assert np.sum(dist) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        signalling_multistate_ii(4, 6.0, epsilon=0.0)


def test_multistate_matches_engine_simulation():
    """Run the steering protocol as an actual 3-qubit circuit and compare."""
    d, p, eps = 4, 4.0, 1e-2
    report = signalling_multistate_ii(d, p, epsilon=eps)
    setup = build_discrimination_setup(d, p)
    for j in range(d):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[4 + 1] = 1 / math.sqrt(2)   # EPR between qubits 0 and 2
        state = StateVector(amps)
        steer = Gate(steering_map(math.pi * j / d, eps), name="steer",
                     condition_override=True)
        state = apply_gate(state, steer, [0], "global")
        state = apply_gate(state, Gate(setup.unitary, name="fan"), [1, 2])
        dist = marginal_distribution(state, [1, 2], MeasurementRule(p))
        assert np.allclose(dist, report.distributions[f"j={j}"], atol=1e-12)


def test_option_i_ensembles_p4():
    z, x = option_i_ensembles(4.0, 4)
    assert np.allclose(z, [1 / 3, 1 / 6, 1 / 3, 1 / 6], atol=1e-12)
    assert np.allclose(x, [1 / 6, 1 / 3, 1 / 6, 1 / 3], atol=1e-12)
    assert total_variation(z, x) == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_option_i_blind_at_p2(d):
    z, x = option_i_ensembles(2.0, d)
    assert total_variation(z, x) < 1e-12


def test_two_outcome_measurements_see_uniform_ensembles():
    """The reason option (i) needs d > 2 outcomes, spelled out in ANTIPODAL_NOTE."""
    rng = np.random.default_rng(21)
    r = math.sqrt(0.5)
    for trial in range(20):
        v = unitary_group.rvs(2, random_state=trial)
        p = float(rng.uniform(0.5, 9.0))

        def dist(vec):
            raw = np.abs(v @ vec) ** p
            return raw / raw.sum()

        z_avg = 0.5 * (dist(np.array([1.0, 0.0])) + dist(np.array([0.0, 1.0])))
        x_avg = 0.5 * (dist(np.array([r, r])) + dist(np.array([r, -r])))
        assert np.allclose(z_avg, [0.5, 0.5], atol=1e-12)
        assert np.allclose(x_avg, [0.5, 0.5], atol=1e-12)
    assert "uniform" in ANTIPODAL_NOTE or "cannot" in ANTIPODAL_NOTE


def test_pairs_needed():
    assert option_i_pairs_needed(1 / 3) == 125
    assert option_i_pairs_needed(1 / 3, target_error=0.05) == 54
    with pytest.raises(ValueError):
        option_i_pairs_needed(0.0)
    # tvd^2 underflows to 0, or the pair count overflows to inf
    for tvd in (1e-300, 1e-160):
        with pytest.raises(ValueError, match=f"tvd = {tvd!r}"):
            option_i_pairs_needed(tvd)


def test_option_i_report():
    report = signalling_option_i(4.0)
    assert report.tvd == pytest.approx(1 / 3, abs=1e-12)
    assert report.extras["pairs_needed"] == 125
    assert report.bits == 1.0
    starved = signalling_option_i(4.0, pairs=50)
    assert starved.bits == 0.0
    with pytest.raises(PEqualsTwo):
        signalling_option_i(2.0)


def test_option_i_monte_carlo():
    out = option_i_monte_carlo(4.0, 4, pairs=125, runs=50_000, seed=3)
    assert out == option_i_monte_carlo(4.0, 4, pairs=125, runs=50_000, seed=3)
    assert out["error_rate"] <= 1.5e-3
    assert out["z_favored_mass"] == pytest.approx(2 / 3, abs=1e-12)
    assert out["x_favored_mass"] == pytest.approx(1 / 3, abs=1e-12)


def test_reports_serialize():
    for report in (signalling_option_ii(0.3),
                   signalling_multistate_ii(4, 4.0),
                   signalling_option_i(4.0)):
        text = json.dumps(report.to_dict())
        assert report.scenario in text
    setup = build_discrimination_setup(3, 4.0)
    assert json.loads(json.dumps(setup.to_dict()))["d"] == 3
