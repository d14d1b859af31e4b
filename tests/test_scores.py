"""Score functions: hand-computed examples, reductions, orthogonality."""

import math

import numpy as np
import pytest

from seqdml import (
    GammaParam,
    LinearScore,
    NuisanceEval,
    Observation,
    aipw_score,
    gamma_loss,
    gateaux_orthogonality_check,
    late_score,
    nu_value,
    partial_id_score,
    plr_score,
)
from seqdml.errors import EstimandError, NuisanceError, ParameterError
from seqdml.scores import effective_gamma


def obs(y, a, x=(0.0,), z=None):
    return Observation(y=y, a=a, x=x, z=z)


class TestAipwScore:
    def test_treated_substitution(self):
        s = aipw_score(obs(1.0, 1), NuisanceEval(g1=0.0, g0=0.0, e=0.5))
        assert s.psi_a == -1.0
        assert s.psi_b == pytest.approx(2.0)

    def test_control_substitution(self):
        s = aipw_score(obs(1.0, 0), NuisanceEval(g1=0.0, g0=0.0, e=0.5))
        assert s.psi_b == pytest.approx(-2.0)

    def test_residuals_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = float(rng.normal())
            a = int(rng.integers(0, 2))
            e = float(rng.uniform(0.05, 0.95))
            g1 = y if a == 1 else float(rng.normal())
            g0 = y if a == 0 else float(rng.normal())
            s = aipw_score(obs(y, a), NuisanceEval(g1=g1, g0=g0, e=e))
            assert s.psi_b == pytest.approx(g1 - g0, abs=1e-12)

    def test_bad_propensity(self):
        with pytest.raises(NuisanceError):
            aipw_score(obs(1.0, 1), NuisanceEval(g1=0.0, g0=0.0, e=1.0))
        with pytest.raises(NuisanceError):
            aipw_score(obs(1.0, 1), NuisanceEval(g1=0.0, g0=0.0))


class TestPlrScore:
    def test_substitution(self):
        s = plr_score(obs(3.0, 1), NuisanceEval(m=1.0, e=0.5))
        assert s.psi_a == pytest.approx(-0.25)
        assert s.psi_b == pytest.approx(1.0)

    def test_zero_residual_instrument(self):
        s = plr_score(obs(5.0, 1), NuisanceEval(m=2.0, e=1.0))
        assert s.psi_a == 0.0
        assert s.psi_b == 0.0

    def test_two_point_moment_solution(self):
        # {(y, a, m, e)} = {(1, 1, 0, 0.5), (0, 0, 0, 0.5)}:
        # theta = mean(psi_b) / -mean(psi_a) = 0.25 / 0.25 = 1.
        scores = [
            plr_score(obs(1.0, 1), NuisanceEval(m=0.0, e=0.5)),
            plr_score(obs(0.0, 0), NuisanceEval(m=0.0, e=0.5)),
        ]
        mean_a = sum(s.psi_a for s in scores) / 2
        mean_b = sum(s.psi_b for s in scores) / 2
        assert -mean_b / mean_a == pytest.approx(1.0)


class TestLateScore:
    def test_substitution(self):
        nuis = NuisanceEval(g_t=0.0, g_c=0.0, m_t=0.0, m_c=0.0, e=0.5)
        s = late_score(obs(1.0, 1, z=1), nuis)
        assert s.psi_a == pytest.approx(-2.0)
        assert s.psi_b == pytest.approx(2.0)

    def test_unassigned_substitution(self):
        nuis = NuisanceEval(g_t=0.0, g_c=1.0, m_t=0.0, m_c=0.0, e=0.5)
        s = late_score(obs(2.0, 0, z=0), nuis)
        assert s.psi_b == pytest.approx(-3.0)
        assert s.psi_a == pytest.approx(0.0)

    def test_perfect_compliance_reduces_to_aipw(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = int(rng.integers(0, 2))
            y = float(rng.normal())
            e = float(rng.uniform(0.1, 0.9))
            g_t, g_c = float(rng.normal()), float(rng.normal())
            nuis = NuisanceEval(g_t=g_t, g_c=g_c, m_t=1.0, m_c=0.0, e=e)
            s = late_score(obs(y, z, z=z), nuis)
            assert s.psi_a == pytest.approx(-1.0, abs=1e-12)
            ref = aipw_score(obs(y, z), NuisanceEval(g1=g_t, g0=g_c, e=e))
            assert s.psi_b == pytest.approx(ref.psi_b, abs=1e-12)

    def test_missing_instrument(self):
        nuis = NuisanceEval(g_t=0.0, g_c=0.0, m_t=0.0, m_c=0.0, e=0.5)
        with pytest.raises(EstimandError):
            late_score(obs(1.0, 1, z=None), nuis)


class TestPartialIdScore:
    def test_gamma_one_reduces_to_aipw_treated_component(self):
        s = partial_id_score(
            obs(2.0, 1),
            NuisanceEval(g1=1.0, e=0.5, nu=1.0),
            GammaParam(1.0),
            arm="treated",
            side="lower",
        )
        assert s.psi_b == pytest.approx(3.0)

    def test_negative_part_substitution(self):
        s = partial_id_score(
            obs(0.0, 1),
            NuisanceEval(g1=1.0, e=0.5, nu=1.5),
            GammaParam(2.0),
            arm="treated",
            side="lower",
        )
        assert s.psi_b == pytest.approx(-4.0 / 3.0)
        assert s.psi_a == -1.0

    def test_untreated_unit_keeps_imputation_only(self):
        for y in (-3.0, 0.0, 11.0):
            s = partial_id_score(
                obs(y, 0),
                NuisanceEval(g1=5.0, e=0.4, nu=1.2),
                GammaParam(2.0),
                arm="treated",
                side="lower",
            )
            assert s.psi_b == pytest.approx(5.0)

    def test_gamma_one_reduction_pointwise(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            y = float(rng.normal())
            a = int(rng.integers(0, 2))
            g1 = float(rng.normal())
            e = float(rng.uniform(0.05, 0.95))
            s = partial_id_score(
                obs(y, a),
                NuisanceEval(g1=g1, e=e, nu=1.0),
                GammaParam(1.0),
                arm="treated",
                side="lower",
            )
            aipw_component = g1 + a * (y - g1) / e
            assert s.psi_b == pytest.approx(aipw_component, abs=1e-12)

    def test_nu_out_of_range(self):
        with pytest.raises(NuisanceError):
            partial_id_score(
                obs(1.0, 1),
                NuisanceEval(g1=0.0, e=0.5, nu=3.5),
                GammaParam(2.0),
                arm="treated",
                side="lower",
            )
        # upper side flips the admissible range to [1/gamma, 1]
        with pytest.raises(NuisanceError):
            partial_id_score(
                obs(1.0, 1),
                NuisanceEval(g1=0.0, e=0.5, nu=1.5),
                GammaParam(2.0),
                arm="treated",
                side="upper",
            )

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ParameterError):
            GammaParam(0.5)


class TestGammaLoss:
    def test_positive_residual(self):
        value, d_dg = gamma_loss(2.0, 0.0, GammaParam(3.0))
        assert value == pytest.approx(4.0)
        assert d_dg == pytest.approx(-4.0)

    def test_negative_residual(self):
        value, d_dg = gamma_loss(0.0, 2.0, GammaParam(3.0))
        assert value == pytest.approx(12.0)
        assert d_dg == pytest.approx(12.0)

    def test_kink_is_flat(self):
        value, d_dg = gamma_loss(1.3, 1.3, GammaParam(4.0))
        assert value == 0.0
        assert d_dg == 0.0
        # both one-sided difference quotients vanish at the kink
        for t in (1e-4, 1e-6):
            up, _ = gamma_loss(1.3, 1.3 + t, 4.0)
            down, _ = gamma_loss(1.3, 1.3 - t, 4.0)
            assert up / t == pytest.approx(0.0, abs=5e-4)
            assert down / t == pytest.approx(0.0, abs=5e-4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-6
        checked = 0
        while checked < 1000:
            y = float(rng.normal(scale=3.0))
            g = float(rng.normal(scale=3.0))
            if abs(y - g) < 1e-3:
                continue
            gamma = float(rng.uniform(1.0, 10.0))
            _, d_dg = gamma_loss(y, g, gamma)
            up, _ = gamma_loss(y, g + h, gamma)
            down, _ = gamma_loss(y, g - h, gamma)
            assert (up - down) / (2 * h) == pytest.approx(d_dg, abs=1e-6)
            checked += 1

    def test_fractional_weight_accepted(self):
        value, d_dg = gamma_loss(0.0, 2.0, 0.5)
        assert value == pytest.approx(2.0)
        assert d_dg == pytest.approx(2.0)


class TestNuValue:
    def test_substitution(self):
        assert nu_value(0.7, GammaParam(2.0)) == pytest.approx(1.3)

    def test_gamma_one_degenerate(self):
        for p in (0.0, 0.3, 1.0):
            assert nu_value(p, GammaParam(1.0)) == 1.0

    def test_boundary(self):
        assert nu_value(0.0, GammaParam(5.0)) == 5.0

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = float(rng.uniform())
            gamma = float(rng.uniform(1.0, 8.0))
            v = nu_value(p, GammaParam(gamma))
            assert 1.0 <= v <= gamma

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            nu_value(-0.1, GammaParam(2.0))
        with pytest.raises(ParameterError):
            nu_value(1.1, GammaParam(2.0))


class TestLinearity:
    def test_value_is_affine_in_theta(self):
        rng = np.random.default_rng(21)
        nuis_ate = NuisanceEval(g1=0.3, g0=-0.2, e=0.4)
        nuis_plr = NuisanceEval(m=0.5, e=0.3)
        nuis_late = NuisanceEval(g_t=1.0, g_c=0.0, m_t=0.8, m_c=0.1, e=0.5)
        observation = obs(1.7, 1, z=1)
        for score in (
            aipw_score(observation, nuis_ate),
            plr_score(observation, nuis_plr),
            late_score(observation, nuis_late),
        ):
            for _ in range(100):
                theta = float(rng.normal(scale=5.0))
                assert score.value(theta) == score.psi_a * theta + score.psi_b


# ---------------------------------------------------------------------------
# Finite-support distributions with exactly known nuisances
# ---------------------------------------------------------------------------

def make_ate_dgp():
    """(weights, observations) plus exact nuisance maps for the AIPW score."""
    e_of = {0.0: 0.3, 1.0: 0.7}
    g1_of = {0.0: 1.0, 1.0: -0.5}
    g0_of = {0.0: 0.2, 1.0: 0.8}
    noise = 0.7
    support = []
    for xv, px in ((0.0, 0.4), (1.0, 0.6)):
        for a in (0, 1):
            pa = e_of[xv] if a == 1 else 1.0 - e_of[xv]
            center = g1_of[xv] if a == 1 else g0_of[xv]
            for eps in (-noise, noise):
                support.append((px * pa * 0.5, obs(center + eps, a, x=(xv,))))
    theta0 = 0.4 * (g1_of[0.0] - g0_of[0.0]) + 0.6 * (g1_of[1.0] - g0_of[1.0])

    def eta0(o):
        xv = o.x[0]
        return NuisanceEval(g1=g1_of[xv], g0=g0_of[xv], e=e_of[xv])

    return support, eta0, theta0


def make_plr_dgp():
    theta0 = 1.5
    e_of = {0.0: 0.4, 1.0: 0.6}
    f_of = {0.0: 1.0, 1.0: 3.0}
    noise = 0.8
    support = []
    for xv in (0.0, 1.0):
        for a in (0, 1):
            pa = e_of[xv] if a == 1 else 1.0 - e_of[xv]
            for eps in (-noise, noise):
                y = theta0 * a + f_of[xv] + eps
                support.append((0.5 * pa * 0.5, obs(y, a, x=(xv,))))

    def eta0(o):
        xv = o.x[0]
        return NuisanceEval(m=theta0 * e_of[xv] + f_of[xv], e=e_of[xv])

    return support, eta0, theta0


def make_late_dgp():
    theta0 = 2.0
    e_of = {0.0: 0.5, 1.0: 0.6}
    h_of = {0.0: 0.5, 1.0: -1.0}
    p_complier = 0.7
    noise = 0.6
    support = []
    for xv in (0.0, 1.0):
        for z in (0, 1):
            pz = e_of[xv] if z == 1 else 1.0 - e_of[xv]
            for comp in (0, 1):
                pc = p_complier if comp == 1 else 1.0 - p_complier
                a = z * comp
                for eps in (-noise, noise):
                    y = theta0 * a + h_of[xv] + eps
                    support.append((0.5 * pz * pc * 0.5, obs(y, a, x=(xv,), z=z)))

    def eta0(o):
        xv = o.x[0]
        return NuisanceEval(
            g_t=theta0 * p_complier + h_of[xv],
            g_c=h_of[xv],
            m_t=p_complier,
            m_c=0.0,
            e=e_of[xv],
        )

    return support, eta0, theta0


def make_partial_id_dgp(gamma=2.0, arm="treated", side="lower"):
    """Two-point outcome law per x in one arm whose asymmetric-loss
    minimizer is exact. The control arm mirrors the treated one: its rows
    carry the outcomes, with probability 1 - e. g (the g1 field) is the
    side's loss minimizer, at weight Gamma for lower and 1/Gamma for upper."""
    e_of = {0.0: 0.4, 1.0: 0.6}
    y_lo = {0.0: -1.0, 1.0: -0.5}
    y_hi = {0.0: 2.0, 1.0: 3.0}
    p_lo, p_hi = 0.3, 0.7
    weight = effective_gamma(GammaParam(gamma), side)
    g1_of = {
        xv: (p_hi * y_hi[xv] + weight * p_lo * y_lo[xv]) / (p_hi + weight * p_lo)
        for xv in (0.0, 1.0)
    }
    nu = p_hi + weight * p_lo
    observed = 1 if arm == "treated" else 0
    support = []
    for xv in (0.0, 1.0):
        p_arm = e_of[xv] if arm == "treated" else 1 - e_of[xv]
        for yv, py in ((y_lo[xv], p_lo), (y_hi[xv], p_hi)):
            support.append((0.5 * p_arm * py, obs(yv, observed, x=(xv,))))
        support.append((0.5 * (1 - p_arm), obs(0.0, 1 - observed, x=(xv,))))

    def eta0(o):
        xv = o.x[0]
        return NuisanceEval(g1=g1_of[xv], e=e_of[xv], nu=nu)

    def theta0():
        total = 0.0
        for w, o in support:
            total += w * partial_id_score(o, eta0(o), GammaParam(gamma), arm, side).psi_b
        return total

    return support, eta0, theta0()


DIRECTIONS = {
    "g1": NuisanceEval(g1=1.0),
    "g0": NuisanceEval(g0=1.0),
    "m": NuisanceEval(m=1.0),
    "e": NuisanceEval(e=0.5),
    "g_t": NuisanceEval(g_t=1.0),
    "g_c": NuisanceEval(g_c=1.0),
    "m_t": NuisanceEval(m_t=1.0),
    "m_c": NuisanceEval(m_c=1.0),
    "nu": NuisanceEval(nu=0.5),
}


class TestGateauxOrthogonality:
    def check_directions(self, score, support, eta0, theta0, names, tol=1e-6):
        for name in names:
            direction = DIRECTIONS[name]
            value = gateaux_orthogonality_check(
                score, support, eta0, lambda o, d=direction: d, theta0
            )
            assert abs(value) <= tol, f"direction {name}: derivative {value}"

    def test_aipw_orthogonal(self):
        support, eta0, theta0 = make_ate_dgp()
        self.check_directions(aipw_score, support, eta0, theta0, ("g1", "g0", "e"))

    def test_aipw_g1_direction_tight(self):
        support, eta0, theta0 = make_ate_dgp()
        value = gateaux_orthogonality_check(
            aipw_score, support, eta0, lambda o: NuisanceEval(g1=1.0), theta0
        )
        assert abs(value) <= 1e-8

    def test_plr_orthogonal(self):
        support, eta0, theta0 = make_plr_dgp()
        self.check_directions(plr_score, support, eta0, theta0, ("m", "e"))

    def test_late_orthogonal(self):
        support, eta0, theta0 = make_late_dgp()
        self.check_directions(
            late_score, support, eta0, theta0, ("g_t", "g_c", "m_t", "m_c", "e")
        )

    def test_partial_id_orthogonal(self):
        # All four bounds: each arm, each side, at two strengths of confounding.
        for arm in ("treated", "control"):
            for side in ("lower", "upper"):
                for gamma in (2.0, 5.0):
                    support, eta0, theta0 = make_partial_id_dgp(gamma, arm, side)
                    score = lambda o, nuis, g=GammaParam(gamma), arm=arm, side=side: (
                        partial_id_score(o, nuis, g, arm, side))
                    self.check_directions(score, support, eta0, theta0, ("g1", "e", "nu"),
                                          tol=1e-9)

    @pytest.mark.parametrize("arm", ["treated", "control"])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_partial_id_nu_has_no_room_at_gamma_one(self, arm, side):
        # nu's range is [1, 1] at Gamma = 1, so any shift of nu leaves it.
        support, eta0, theta0 = make_partial_id_dgp(1.0, arm, side)
        score = lambda o, nuis: partial_id_score(o, nuis, GammaParam(1.0), arm, side)
        self.check_directions(score, support, eta0, theta0, ("g1", "e"))
        with pytest.raises(NuisanceError, match="outside"):
            self.check_directions(score, support, eta0, theta0, ("nu",))

    def test_naive_plugin_score_is_not_orthogonal(self):
        support, eta0, theta0 = make_ate_dgp()

        def plugin(o, nuis):
            return LinearScore(psi_a=-1.0, psi_b=nuis.g1 - nuis.g0)

        value = gateaux_orthogonality_check(
            plugin, support, eta0, lambda o: NuisanceEval(g1=1.0), theta0
        )
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_zero_direction(self):
        support, eta0, theta0 = make_ate_dgp()
        value = gateaux_orthogonality_check(
            aipw_score, support, eta0, lambda o: NuisanceEval(), theta0
        )
        assert value == 0.0

    def test_perturbing_unset_field_rejected(self):
        base = NuisanceEval(g1=0.0, g0=0.0, e=0.5)
        with pytest.raises(NuisanceError):
            base.perturbed(NuisanceEval(m=1.0), 0.1)
