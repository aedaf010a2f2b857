"""What breaks physically when measurement uses a p-norm with p != 2.

Two families of demonstrations live here.  State discrimination: d states on
a qubit, pairwise angles pi/d apart, become almost perfectly distinguishable
once p is large compared with d^2, because a single unitary can fan the
amplitudes out over d outcomes as cos(pi (k - j) / d) and the p-norm rule
crushes everything except the aligned outcome.  Superluminal signalling:
under global normalization Alice's choice of invertible action on her half
of an EPR pair shows up immediately in Bob's marginal, and even with
unitary-only dynamics the p-norm rule lets Bob distinguish which basis Alice
measured in, given enough EPR pairs.

Probabilities are computed exactly (closed forms or full linear algebra);
Monte Carlo helpers exist only to cross-check the exact numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Gate, MeasurementRule, apply_gate, bell_pair, marginal_distribution
from .linalg import PEqualsTwo, complete_to_unitary, p_distribution
from .report import CheckReport, fields_to_json

RESCALE_NOTE = ("measurement columns rescaled by sqrt(2) to be orthonormal; "
                "harmless because the p-norm rule is scale-invariant")
ANTIPODAL_NOTE = ("two-outcome measurements cannot separate the ensembles: any "
                  "qubit unitary sends orthogonal states to outputs with mirrored "
                  "outcome moduli, so each antipodal ensemble averages to (1/2, 1/2); "
                  "hence the d >= 4 outcome embedding")


@dataclass
class DiscriminationSetup:
    """d nearly-parallel qubit states and the unitary that fans them out.

    ``states[j]`` is (cos(pi j / d), sin(pi j / d)); ``unitary`` is d x d with
    first two columns sqrt(2/d) cos(pi k / d) and sqrt(2/d) sin(pi k / d), so
    feeding in ``states[j]`` (zero-padded to length d) yields amplitudes
    proportional to cos(pi (k - j) / d).
    """

    d: int
    p: float
    states: np.ndarray
    unitary: np.ndarray
    note: str = RESCALE_NOTE

    def to_dict(self) -> dict:
        return fields_to_json(self)


def build_discrimination_setup(d: int, p: float) -> DiscriminationSetup:
    """Construct the d-outcome discrimination unitary for exponent p."""
    if d < 2:
        raise ValueError("need d >= 2 states")
    MeasurementRule(p)   # finite and positive, else NonPositiveP
    k = np.arange(d)
    scale = math.sqrt(2.0 / d)
    col_cos = scale * np.cos(np.pi * k / d)
    col_sin = scale * np.sin(np.pi * k / d)
    u = complete_to_unitary([col_cos.astype(np.complex128),
                             col_sin.astype(np.complex128)])
    u = np.real_if_close(u, tol=100)
    j = np.arange(d)
    states = np.stack([np.cos(np.pi * j / d), np.sin(np.pi * j / d)], axis=1)
    return DiscriminationSetup(d, float(p), states, np.asarray(u.real), RESCALE_NOTE)


def discrimination_distribution(setup: DiscriminationSetup, j: int) -> np.ndarray:
    """Exact p-norm outcome distribution when the true state is j."""
    if not 0 <= j < setup.d:
        raise ValueError(f"true state j = {j} is out of range for d = {setup.d}")
    v = np.zeros(setup.d)
    v[:2] = setup.states[j]
    return p_distribution(setup.unitary @ v, setup.p)


def discrimination_error(setup: DiscriminationSetup, j: int) -> float:
    """Error probability of the guess-the-outcome decoder for true state j."""
    return float(1.0 - discrimination_distribution(setup, j)[j])


def discrimination_q(d: int, p: float) -> float:
    """The misalignment weight q = sum_{t != 0} |cos(pi t / d)|^p.

    For odd d this is the closed form 2 sum_{k=1}^{(d-1)/2} cos(pi k / d)^p,
    and the decoder error equals q / (1 + q).
    """
    t = np.arange(1, d)
    return float(np.sum(np.abs(np.cos(np.pi * t / d)) ** p))


def discrimination_error_closed_form(d: int, p: float) -> float:
    q = discrimination_q(d, p)
    return q / (1.0 + q)


def discrimination_bound_check(d: int, p: float) -> CheckReport:
    """Check q against its Gaussian-tail majorant 2 sum exp(-pi^2 k^2 p / (2 d^2)).

    The per-term inequality cos(t) <= exp(-t^2 / 2) on [0, pi/2) makes the
    bound rigorous for every p > 0, not only large p.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError("the closed-form bound is stated for odd d >= 3")
    k = np.arange(1, (d - 1) // 2 + 1)
    q = 2.0 * float(np.sum(np.cos(np.pi * k / d) ** p))
    bound = 2.0 * float(np.sum(np.exp(-np.pi ** 2 * k ** 2 * p / (2.0 * d ** 2))))
    error = q / (1.0 + q)
    passed = q <= bound + 1e-15
    return CheckReport(
        claim=f"misalignment weight within Gaussian-tail bound (d={d}, p={p})",
        passed=passed,
        witnesses=[] if passed else [{"q": q, "bound": bound}],
        residuals={"q": q, "bound": bound, "error": error,
                   "margin": bound - q},
    )


def sample_discrimination(setup: DiscriminationSetup, j: int, trials: int,
                          seed: int | None = 0) -> dict:
    """Monte Carlo estimate of the decoder error; cross-checks the exact value."""
    dist = discrimination_distribution(setup, j)
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(setup.d, size=trials, p=dist)
    err_hat = float(np.mean(outcomes != j))
    exact = float(1.0 - dist[j])
    sigma = math.sqrt(max(exact * (1.0 - exact), 1e-30) / trials)
    return {"trials": trials, "seed": seed, "error_estimate": err_hat,
            "error_exact": exact, "sigma": sigma,
            "within_3_sigma": abs(err_hat - exact) <= 3.0 * sigma}


@dataclass
class SignallingReport:
    """Bob-side evidence that Alice's choice is visible at a distance."""

    scenario: str
    distributions: dict
    tvd: float
    bits: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return fields_to_json(self)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def signalling_option_ii(epsilon: float) -> SignallingReport:
    """One bit through an EPR pair using invertible damping, global normalization.

    Alice applies diag(1, eps) for bit 0 or diag(eps, 1) for bit 1 to her
    half of (|00> + |11>)/sqrt(2); nothing is renormalized until Bob looks.
    Bob's 2-norm marginal is (1, eps^2)/(1 + eps^2) or its reverse, so the
    total variation distance is (1 - eps^2)/(1 + eps^2): a perfect bit at
    eps = 0, no signal at eps = 1, and this works even at p = 2.

    eps = 0 is allowed (the damping is then singular but the surviving branch
    is nonzero); the condition-number guard is overridden for tiny eps.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    epr = bell_pair()
    dists = []
    for bit in (0, 1):
        diag = [1.0, epsilon] if bit == 0 else [epsilon, 1.0]
        gate = Gate(np.diag(diag), name=f"damp{bit}", condition_override=True)
        state = apply_gate(epr, gate, [0], "global")
        dists.append(marginal_distribution(state, [1], MeasurementRule(2.0)))
    tvd = total_variation(dists[0], dists[1])
    closed = (1.0 - epsilon ** 2) / (1.0 + epsilon ** 2)
    success = 0.5 * (dists[0][0] + dists[1][1])
    bits = 1.0 if success >= 2.0 / 3.0 else 0.0
    return SignallingReport(
        scenario="option-ii",
        distributions={"bit0": dists[0], "bit1": dists[1]},
        tvd=tvd,
        bits=bits,
        extras={"epsilon": epsilon, "tvd_closed_form": closed,
                "success_probability": float(success),
                "p": 2.0,
                "note": "global normalization only; no p != 2 needed"},
    )


def steering_map(theta: float, epsilon: float) -> np.ndarray:
    """Alice-side invertible map steering Bob toward (cos theta, sin theta).

    Rows are the target state and epsilon times its orthogonal complement;
    by the transpose identity (M (x) I)|EPR> has joint amplitudes M[a, k], so
    the normalized result is |0>|psi> + eps |1>|psi_perp>, all over
    sqrt(1 + eps^2).
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-epsilon * s, epsilon * c]])


def signalling_multistate_ii(d: int, p: float, epsilon: float = 1e-3) -> SignallingReport:
    """log2(d) bits through one EPR pair: steer, then discriminate.

    Alice steers Bob's half toward one of the d discrimination states with an
    invertible map (global normalization); up to a residual of
    eps^2 / (1 + eps^2) in squared weight Bob simply holds state j, runs the
    d-outcome discrimination unitary, and reads j off the outcome.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1) to keep the maps invertible")
    setup = build_discrimination_setup(d, p)
    embed = setup.unitary[:, :2]
    dists = {}
    successes = []
    for j in range(d):
        m = steering_map(math.pi * j / d, epsilon)
        joint = m / math.sqrt(1.0 + epsilon ** 2)   # rows: Alice, cols: Bob
        fanned = joint @ embed.T                     # 2 x d
        dist = p_distribution(fanned, p).sum(axis=0)
        dists[f"j={j}"] = dist
        successes.append(float(dist[j]))
    worst = min(successes)
    bits = math.log2(d) if worst >= 2.0 / 3.0 else 0.0
    tvd = max(total_variation(dists[f"j={a}"], dists[f"j={b}"])
              for a in range(d) for b in range(a + 1, d))
    return SignallingReport(
        scenario="multistate-ii",
        distributions=dists,
        tvd=tvd,
        bits=bits,
        extras={"d": d, "p": p, "epsilon": epsilon,
                "success_rates": successes, "worst_success": worst,
                "state_residual": epsilon ** 2 / (1.0 + epsilon ** 2),
                "note": RESCALE_NOTE},
    )


def option_i_ensembles(p: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Bob's ensemble-averaged outcome distributions for Alice's Z vs X choice.

    No p = 2 guard here on purpose: at p = 2 the two distributions coincide
    (both ensembles have density matrix I/2), and tests verify exactly that.
    """
    setup = build_discrimination_setup(d, p)
    embed = setup.unitary[:, :2]
    r = math.sqrt(0.5)
    z = 0.5 * (p_distribution(embed[:, 0], p) + p_distribution(embed[:, 1], p))
    x = 0.5 * (p_distribution(embed @ [r, r], p) + p_distribution(embed @ [r, -r], p))
    return z, x


def option_i_pairs_needed(tvd: float, target_error: float = 1e-3) -> int:
    """EPR pairs for a midpoint-frequency decision with per-hypothesis error
    at most target_error, by the one-sided Hoeffding bound
    exp(-N tvd^2 / 2) <= target."""
    if tvd <= 0:
        raise ValueError("tvd must be positive")
    pairs = 2.0 * math.log(1.0 / target_error) / tvd ** 2 if tvd ** 2 else math.inf
    if not math.isfinite(pairs):
        raise ValueError(f"no finite pair count reaches the target error at tvd = {tvd!r}")
    return math.ceil(pairs)


def signalling_option_i(p: float, d: int = 4, pairs: int | None = None,
                        target_error: float = 1e-3) -> SignallingReport:
    """A bit from measurement-basis choice alone, using unitary dynamics.

    Alice measures her EPR halves in Z (bit 0) or X (bit 1).  Bob pushes each
    collapsed qubit through the d-outcome embedding and measures under the
    p-norm rule; the two ensemble-averaged distributions differ for p != 2,
    and frequency counting over enough pairs decodes the bit.
    """
    if p == 2:
        raise PEqualsTwo("ensembles with equal density matrices are "
                         "indistinguishable at p = 2")
    z, x = option_i_ensembles(p, d)
    tvd = total_variation(z, x)
    needed = option_i_pairs_needed(tvd, target_error) if tvd > 0 else None
    used = needed if pairs is None else int(pairs)
    bits = 1.0 if needed is not None and used >= needed else 0.0
    return SignallingReport(
        scenario="option-i",
        distributions={"Z": z, "X": x},
        tvd=tvd,
        bits=bits,
        extras={"p": p, "d": d, "pairs": used, "pairs_needed": needed,
                "target_error": target_error,
                "decision_rule": "frequency of the Z-favored outcome set "
                                 "against the midpoint",
                "note": ANTIPODAL_NOTE},
    )


def option_i_monte_carlo(p: float, d: int, pairs: int, runs: int = 100_000,
                         seed: int | None = 0) -> dict:
    """Empirical decoding error of the option-(i) protocol.

    Each run draws `pairs` outcomes from the true ensemble distribution and
    thresholds the frequency of the Z-favored outcome set at the midpoint;
    the per-run count is drawn binomially, which is distributionally
    identical to sampling outcomes one by one.
    """
    z, x = option_i_ensembles(p, d)
    favored = z > x
    pz, px = float(z[favored].sum()), float(x[favored].sum())
    mid = 0.5 * (pz + px)
    rng = np.random.default_rng(seed)
    half = runs // 2
    z_freq = rng.binomial(pairs, pz, size=half) / pairs
    x_freq = rng.binomial(pairs, px, size=runs - half) / pairs
    errors = int(np.sum(z_freq < mid)) + int(np.sum(x_freq >= mid))
    return {"runs": runs, "pairs": pairs, "seed": seed,
            "error_rate": errors / runs,
            "z_favored_mass": pz, "x_favored_mass": px, "midpoint": mid}
