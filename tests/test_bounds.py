"""Closed-form bound evaluators: term recomputation and Monte Carlo oracles."""

import math

import pytest

from supgauss.bounds import (
    AnalyticVectorMoments,
    MomentInputs,
    coupling_budget,
    crossover_sweep,
    stein_coupling_terms,
    vc_class_budget,
    yurinskii_bound,
)
from supgauss.simulate import RngPolicy


def make_inputs(n=1000, q=4.0, sigma=0.8, b=1.0, M2=1.5, Mq=2.0, kappa=1.0, EG_FF=1.0, phi=0.0):
    return MomentInputs(
        n=n,
        sigma=sigma,
        b=b,
        q=q,
        M2=M2,
        Mq=Mq,
        kappa=kappa,
        EG_FF=EG_FF,
        H_profile=lambda eps: math.log(n),
        phi_profile=lambda eps: phi,
        tail_fn=lambda u: 0.0,
    )


class TestCouplingBudget:
    def test_term_isolation(self):
        inputs = MomentInputs(
            n=1000, sigma=0.0, b=1.0, q=4.0,
            M2=0.0, Mq=0.0, kappa=1e-12, EG_FF=0.0,
            H_profile=lambda eps: math.log(1000),
            phi_profile=lambda eps: 0.1,
            tail_fn=lambda u: 0.0,
        )
        gamma, eps = 0.2, 0.3
        budget = coupling_budget(inputs, epsilon=eps, gamma=gamma)
        assert budget.terms["phi"] == pytest.approx(0.1)
        assert budget.terms["eps_term"] == pytest.approx(gamma ** (-0.25) * eps * 1.0)
        for name in ("Mq_term", "M2_term", "FF_term"):
            assert budget.terms[name] == 0.0
        assert budget.terms["kappa_term"] == pytest.approx(
            1000 ** (-1 / 6) * gamma ** (-1 / 3) * 1e-12 * math.log(1000) ** (2 / 3)
        )

    def test_six_terms_hand_recomputed(self):
        n, gamma, q, eps = 1000, 0.1, 4.0, 0.05
        F_P2, M4, M2, EG_FF, kappa = 1.0, 2.0, 1.5, 1.0, 1.0
        H = math.log(1000.0)
        inputs = make_inputs(n=n, q=q, sigma=0.8, b=F_P2, M2=M2, Mq=M4, kappa=kappa, EG_FF=EG_FF)
        budget = coupling_budget(inputs, epsilon=eps, gamma=gamma)
        raw_n = float(n)
        expected = {
            "phi": 0.0,
            "eps_term": gamma ** (-1.0 / q) * eps * F_P2,
            "Mq_term": raw_n**-0.5 * gamma ** (-1.0 / q) * M4,
            "M2_term": raw_n**-0.5 * gamma ** (-2.0 / q) * M2,
            "FF_term": raw_n**-0.25 * gamma**-0.5 * math.sqrt(EG_FF) * math.sqrt(H),
            "kappa_term": raw_n ** (-1.0 / 6.0) * gamma ** (-1.0 / 3.0) * kappa * H ** (2.0 / 3.0),
        }
        for name, val in expected.items():
            assert budget.terms[name] == pytest.approx(val, rel=1e-12), name
        assert budget.delta_n == sum(budget.terms.values())
        assert budget.prob_bound_raw == pytest.approx(gamma + math.log(n) / n, rel=1e-12)

    def test_monotone_in_n(self):
        vals = []
        for n in (100, 1000, 10_000):
            inputs = make_inputs(n=n)
            # hold H fixed across n so only the explicit n-powers move
            inputs = MomentInputs(
                n=n, sigma=0.8, b=1.0, q=4.0, M2=1.5, Mq=2.0,
                kappa=1.0, EG_FF=1.0,
                H_profile=lambda eps: math.log(10_000),
                phi_profile=lambda eps: 0.0,
                tail_fn=lambda u: 0.0,
            )
            vals.append(coupling_budget(inputs, epsilon=0.05, gamma=0.1).delta_n)
        assert vals[0] > vals[1] > vals[2]

    def test_tail_term(self):
        inputs = MomentInputs(
            n=1000, sigma=0.5, b=1.0, q=4.0, M2=1.0, Mq=1.0,
            kappa=0.5, EG_FF=0.2,
            H_profile=lambda eps: math.log(1000),
            phi_profile=lambda eps: 0.0,
            tail_fn=lambda u: 8.0 if 2.0 > u else 0.0,  # bounded F/kappa = 2 case
        )
        budget = coupling_budget(inputs, epsilon=0.1, gamma=0.5, c_const=1e-6)
        assert budget.delta_n_tail == pytest.approx(2.0)  # 0.25 * 8
        assert budget.prob_bound_raw == pytest.approx(0.5 * 3.0 + math.log(1000) / 1000)

    def test_rejects_q_below_3(self):
        inputs = MomentInputs(
            n=100, sigma=0.5, b=1.0, q=2.5, M2=1.0, Mq=1.0,
            kappa=1.0, EG_FF=0.0,
            H_profile=lambda eps: math.log(100), phi_profile=lambda eps: 0.0, tail_fn=lambda u: 0.0,
        )
        with pytest.raises(ValueError, match="q >= 3"):
            coupling_budget(inputs, epsilon=0.1, gamma=0.1)

    def test_moment_inputs_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            make_inputs(sigma=1.5, b=1.0)
        with pytest.raises(ValueError):
            make_inputs(M2=3.0, Mq=2.0)

    def test_norm_order_checked_at_q_2(self):
        # the two norms are separate fields, so at q = 2 neither can shadow the other
        with pytest.raises(ValueError, match=r"\|\|M\|\|_2"):
            make_inputs(q=2.0, M2=3.0, Mq=2.0)


class TestVcClassBudget:
    def test_K_n_direct(self):
        n = round(math.exp(10.0))
        out = vc_class_budget(n=n, gamma=0.1, q=4.0, b=1.0, sigma=0.5, A=math.e, v=1.0)
        assert out.K_n == pytest.approx(math.log(n), rel=1e-12)

    def test_q_infinity_convention(self):
        n, gamma, b, sigma = 10_000, 0.1, 1.0, 0.5
        out = vc_class_budget(n=n, gamma=gamma, q=math.inf, b=b, sigma=sigma, A=math.e, v=1.0)
        K_n = out.K_n
        assert out.terms["envelope_term"] == pytest.approx(b * K_n / (gamma**0.5 * n**0.5), rel=1e-12)

    def test_decreasing_in_n(self):
        n = 1000
        a = vc_class_budget(n=n, gamma=0.1, q=4.0, b=1.0, sigma=1.0, A=math.e, v=1.0)
        b16 = vc_class_budget(n=16 * n, gamma=0.1, q=4.0, b=1.0, sigma=1.0, A=math.e, v=1.0)
        assert b16.total < a.total

    def test_rejects_sigma_above_b(self):
        with pytest.raises(ValueError):
            vc_class_budget(n=100, gamma=0.1, q=4.0, b=1.0, sigma=2.0, A=math.e, v=1.0)


class TestSteinCouplingTerms:
    def test_degenerate_zero_vectors(self):
        moments = AnalyticVectorMoments(B1=0.0, B2=0.0, b3_tail=lambda thr: 0.0)
        n, p = 1000, 4
        out = stein_coupling_terms(moments, delta=1.0, n=n, p=p)
        assert out.B1 == out.B2 == out.B4 == 0.0
        assert out.prob_raw_cor == pytest.approx(math.log(n) / n)

    def test_two_point_law_exact(self):
        # p = 1, X_i = +/- n^{-1/2}: squares are constant so B1 = 0; B2 = n^{-1/2};
        # tails vanish once the threshold exceeds n^{-1/2}
        n = 10_000
        coord = n**-0.5
        moments = AnalyticVectorMoments(
            B1=0.0, B2=coord, b3_tail=lambda thr: coord if coord > thr else 0.0
        )
        out = stein_coupling_terms(moments, delta=1.0, n=n, p=1)
        assert out.B1 == 0.0
        assert out.B2 == pytest.approx(coord)
        # the tail threshold delta / log n exceeds n^{-1/2}
        assert out.B4 == 0.0

    def test_rejects_bad_sizes(self):
        moments = AnalyticVectorMoments(B1=0.0, B2=0.0, b3_tail=lambda thr: 0.0)
        with pytest.raises(ValueError):
            stein_coupling_terms(moments, delta=0.0, n=100, p=4)
        with pytest.raises(ValueError):
            stein_coupling_terms(moments, delta=1.0, n=2, p=2)


class TestYurinskii:
    def test_unit_B0(self):
        # B0 = 1 exactly when p delta^{-3} sum = 1; the log factor then vanishes
        assert yurinskii_bound(p=4, delta=2.0, sum_third_moments=2.0) == pytest.approx(1.0)

    def test_monotone_in_p(self):
        a = yurinskii_bound(p=4, delta=1.0, sum_third_moments=0.3)
        b = yurinskii_bound(p=8, delta=1.0, sum_third_moments=0.3)
        assert b >= a

    def test_crossover_sweep(self):
        n_list = [2**e for e in range(8, 17)]
        rows, crossover_n = crossover_sweep(n_list, delta=50.0)
        cor = [r.cor_bound for r in rows]
        yur = [r.yurinskii for r in rows]
        assert all(b < a for a, b in zip(cor, cor[1:]))
        assert all(b > a for a, b in zip(yur, yur[1:]))
        assert crossover_n is not None and n_list[0] < crossover_n <= n_list[-1]
        # divergence at the top end: whole-vector bound blows up, maxima bound vanishes
        assert yur[-1] > 1.0 > cor[-1]


class TestCouplingAgainstSimulation:
    def test_two_point_exceedance_below_bound(self):
        # p = 1, X_i = +/- n^{-1/2}: simulate the sum, couple it to its Gaussian
        # analogue by rank pairing, and compare the measured exceedance at 16 delta
        # with the applied coupling bound at unit constant
        from supgauss.simulate import SupSample, quantile_coupling

        n, R = 10_000, 20_000
        coord = n**-0.5
        rng = RngPolicy(881)
        signs = rng.stream_of(0).integers(0, 2, size=(R, n)) * 2 - 1
        z = SupSample(signs.sum(axis=1) * coord, "rademacher_sum", seed=881)
        zt = SupSample(rng.with_salt(1).stream_of(0).standard_normal(R), "gauss", seed=881)
        moments = AnalyticVectorMoments(
            B1=0.0, B2=coord, b3_tail=lambda thr: coord if coord > thr else 0.0
        )
        for delta in (0.5, 1.0, 2.0):
            out = stein_coupling_terms(moments, delta=delta, n=n, p=1, c_const=1.0)
            exceed = quantile_coupling(z, zt, 16.0 * delta)
            assert exceed <= out.prob_raw_cor


class TestBudgetReporting:
    def test_sum_identity_bit_exact(self):
        inputs = make_inputs()
        budget = coupling_budget(inputs, epsilon=0.07, gamma=0.3)
        assert budget.delta_n == sum(budget.terms.values())

    def test_constants_echoed(self):
        inputs = make_inputs()
        budget = coupling_budget(inputs, epsilon=0.07, gamma=0.3, K_q=2.5, c_const=0.7, C_log=1.3)
        assert budget.constants_used == {"K_q": 2.5, "c_const": 0.7, "C_log": 1.3}
        assert budget.threshold == pytest.approx(2.5 * budget.delta_n)

    def test_prob_bound_clamped_raw_retained(self):
        inputs = make_inputs(n=3)
        budget = coupling_budget(inputs, epsilon=1.0, gamma=0.999)
        assert budget.prob_bound_raw > 1.0
        assert budget.prob_bound == 1.0
