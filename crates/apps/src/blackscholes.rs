//! Blackscholes — PARSEC option-pricing application.

use crate::common::{rng, InputFile};
use mixp_core::{
    Benchmark, BenchmarkKind, ExecCtx, MetricKind, ProgramBuilder, ProgramModel, VarId,
};
use mixp_float::{MpScalar, MpVec};

/// Blackscholes (§III-B): prices a portfolio of European options
/// analytically by solving the Black-Scholes PDE, following the PARSEC
/// code structure (`main` → `BlkSchlsEqEuroNoDiv` → `CNDF`).
///
/// Program model (Table II): TV = 59, TC = 50. Blackscholes is the paper's
/// example of an application where clustering barely reduces the search
/// space: almost all values flow through *scalar* assignments (which do not
/// constrain types), so only the input-file buffer and the CNDF call
/// interfaces form multi-variable clusters.
///
/// The computation is dominated by `exp`/`log`/`sqrt`/divide latency, and
/// the CNDF polynomial coefficients are source literals that Typeforge
/// cannot transform — so the all-single version gains almost nothing
/// (Table IV: 1.04×).
#[derive(Debug, Clone)]
pub struct Blackscholes {
    program: ProgramModel,
    v: Vars,
    n: usize,
    runs: usize,
    input: InputFile,
}

#[derive(Debug, Clone, Copy)]
struct Vars {
    // main
    data: VarId,
    sptprice: VarId,
    strike: VarId,
    rate: VarId,
    volatility: VarId,
    otime: VarId,
    prices: VarId,
    price: VarId,
    acc: VarId,
    // BlkSchlsEqEuroNoDiv
    x_sqrt_time: VarId,
    log_values: VarId,
    x_d1: VarId,
    x_den: VarId,
    d1: VarId,
    d2: VarId,
    future_value_x: VarId,
    nof_xd1: VarId,
    nof_xd2: VarId,
    option_price: VarId,
    // CNDF
    input_x: VarId,
    x_input: VarId,
    exp_values: VarId,
    x_nprime_of_x: VarId,
    x_k2: VarId,
    x_local: VarId,
    inv_sqrt_2xpi: VarId,
    cnd: VarId,
    // literals
    poly_lit: VarId,
}

impl Blackscholes {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(2048, 2)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(128, 1)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `runs == 0`.
    pub fn with_params(n: usize, runs: usize) -> Self {
        assert!(n > 0 && runs > 0);
        let mut b = ProgramBuilder::new("blackscholes");
        let module = b.module("blackscholes.c");
        let main = b.function("main", module);
        let bs = b.function("BlkSchlsEqEuroNoDiv", module);
        let cndf = b.function("CNDF", module);

        // --- main: the input buffer and the five option-attribute arrays
        // all alias the same fread buffer (one big cluster of 7).
        let data = b.array(main, "data");
        let buffer = b.array(main, "buffer");
        let sptprice = b.array(main, "sptprice");
        let strike = b.array(main, "strike");
        let rate = b.array(main, "rate");
        let volatility = b.array(main, "volatility");
        let otime = b.array(main, "otime");
        for a in [buffer, sptprice, strike, rate, volatility, otime] {
            b.bind(data, a);
        }
        let prices = b.array(main, "prices");
        let price = b.scalar(main, "price");
        let price_delta = b.scalar(main, "priceDelta");
        let acc = b.scalar(main, "acc");
        let norm = b.scalar(main, "norm");

        // --- BlkSchlsEqEuroNoDiv: a long chain of scalar locals. Scalar
        // assignments do not constrain types, so each is its own cluster.
        let x_stock_price = b.scalar(bs, "xStockPrice");
        let x_strike_price = b.scalar(bs, "xStrikePrice");
        let x_risk_free_rate = b.scalar(bs, "xRiskFreeRate");
        let x_volatility = b.scalar(bs, "xVolatility");
        let x_time = b.scalar(bs, "xTime");
        let x_sqrt_time = b.scalar(bs, "xSqrtTime");
        let log_values = b.scalar(bs, "logValues");
        let x_log_term = b.scalar(bs, "xLogTerm");
        let x_d1 = b.scalar(bs, "xD1");
        let x_d2 = b.scalar(bs, "xD2");
        let x_power_term = b.scalar(bs, "xPowerTerm");
        let x_den = b.scalar(bs, "xDen");
        let d1 = b.scalar(bs, "d1");
        let d2 = b.scalar(bs, "d2");
        let future_value_x = b.scalar(bs, "FutureValueX");
        let nof_xd1 = b.scalar(bs, "NofXd1");
        let nof_xd2 = b.scalar(bs, "NofXd2");
        let neg_nof_xd1 = b.scalar(bs, "NegNofXd1");
        let neg_nof_xd2 = b.scalar(bs, "NegNofXd2");
        let option_price = b.scalar(bs, "OptionPrice");
        let x_risk_free_calc = b.scalar(bs, "xRiskFreeCalc");
        let x_vol_sqrt_t = b.scalar(bs, "xVolSqrtT");

        // --- CNDF: the cumulative normal distribution.
        let input_x = b.scalar(cndf, "InputX");
        let output_x = b.scalar(cndf, "OutputX");
        let x_input = b.scalar(cndf, "xInput");
        let exp_values = b.scalar(cndf, "expValues");
        let x_nprime_of_x = b.scalar(cndf, "xNPrimeofX");
        let x_k2 = b.scalar(cndf, "xK2");
        let x_k2_2 = b.scalar(cndf, "xK2_2");
        let x_k2_3 = b.scalar(cndf, "xK2_3");
        let x_k2_4 = b.scalar(cndf, "xK2_4");
        let x_k2_5 = b.scalar(cndf, "xK2_5");
        let x_k2_6 = b.scalar(cndf, "xK2_6");
        let x_k2_7 = b.scalar(cndf, "xK2_7");
        let x_local = b.scalar(cndf, "xLocal");
        let x_local_1 = b.scalar(cndf, "xLocal_1");
        let x_local_2 = b.scalar(cndf, "xLocal_2");
        let x_local_3 = b.scalar(cndf, "xLocal_3");
        let x_local_tmp = b.scalar(cndf, "xLocalTmp");
        let inv_sqrt_2xpi = b.scalar(cndf, "invSqrt2xPI");
        let k_coef = b.scalar(cndf, "kCoef");
        let poly_acc = b.scalar(cndf, "polyAcc");
        let cnd = b.scalar(cndf, "cnd");
        let tail = b.scalar(cndf, "tail");
        let zz = b.scalar(cndf, "zz");
        let t1 = b.scalar(cndf, "t1");
        let t2 = b.scalar(cndf, "t2");

        // The CNDF polynomial coefficients are source-code literals.
        let poly_lit = b.literal(cndf, "0.319381530");

        // CNDF's pointer interface: the argument and the two results flow
        // by address, so their base types are tied.
        b.bind(d1, input_x);
        b.bind(output_x, nof_xd1);
        b.bind(output_x, nof_xd2);

        let program = b.build();
        debug_assert_eq!(program.total_variables(), 59);
        debug_assert_eq!(program.total_clusters(), 50);

        // Synthetic option portfolio, serialised like the PARSEC input file.
        let mut g = rng("blackscholes", 0);
        let mut values = Vec::with_capacity(n * 5);
        for _ in 0..n {
            values.push(g.uniform(10.0, 100.0)); // spot
            values.push(g.uniform(10.0, 100.0)); // strike
            values.push(g.uniform(0.01, 0.05)); // rate
            values.push(g.uniform(0.1, 0.5)); // volatility
            values.push(g.uniform(0.1, 2.0)); // time
        }
        let input = InputFile::new(&values);

        // Silence "field never read" for the vars that only shape the model.
        let _ = (
            price_delta,
            norm,
            x_stock_price,
            x_strike_price,
            x_risk_free_rate,
            x_volatility,
            x_time,
            x_log_term,
            x_d2,
            x_power_term,
            neg_nof_xd1,
            neg_nof_xd2,
            x_risk_free_calc,
            x_vol_sqrt_t,
            x_k2_2,
            x_k2_3,
            x_k2_4,
            x_k2_5,
            x_k2_6,
            x_k2_7,
            x_local_1,
            x_local_2,
            x_local_3,
            x_local_tmp,
            k_coef,
            poly_acc,
            tail,
            zz,
            t1,
            t2,
            output_x,
        );

        Blackscholes {
            program,
            v: Vars {
                data,
                sptprice,
                strike,
                rate,
                volatility,
                otime,
                prices,
                price,
                acc,
                x_sqrt_time,
                log_values,
                x_d1,
                x_den,
                d1,
                d2,
                future_value_x,
                nof_xd1,
                nof_xd2,
                option_price,
                input_x,
                x_input,
                exp_values,
                x_nprime_of_x,
                x_k2,
                x_local,
                inv_sqrt_2xpi,
                cnd,
                poly_lit,
            },
            n,
            runs,
            input,
        }
    }

    /// Charges the fixed operation mix of `count` option pricings (two CNDF
    /// calls each) in bulk. The per-option mix is trip-count-static except
    /// for CNDF's sign-dependent complement flop, which stays at its call
    /// site in [`Blackscholes::cndf`].
    fn charge_option_ops(&self, ctx: &mut ExecCtx<'_>, count: u64) {
        let v = &self.v;
        // BlkSchlsEqEuroNoDiv.
        ctx.heavy(v.x_sqrt_time, &[], count);
        ctx.heavy(v.log_values, &[], 2 * count); // divide + log
        ctx.flop(v.x_d1, &[v.log_values], 4 * count);
        ctx.flop(v.x_den, &[v.x_sqrt_time], count);
        ctx.heavy(v.d1, &[v.x_d1, v.x_den], count);
        ctx.flop(v.d2, &[v.d1, v.x_den], count);
        ctx.heavy(v.future_value_x, &[], count); // exp
        ctx.flop(v.future_value_x, &[], 2 * count);
        ctx.flop(
            v.option_price,
            &[v.nof_xd1, v.future_value_x, v.nof_xd2],
            3 * count,
        );
        // CNDF, entered twice per option.
        let c2 = 2 * count;
        ctx.flop(v.exp_values, &[v.x_input], 2 * c2);
        ctx.heavy(v.exp_values, &[v.x_input], c2);
        ctx.flop(v.x_nprime_of_x, &[v.exp_values, v.inv_sqrt_2xpi], c2);
        ctx.flop(v.x_k2, &[v.x_input], 2 * c2);
        ctx.heavy(v.x_k2, &[], c2);
        // Five polynomial terms: one multiply per term mixes the double
        // literal in; the add and the power update stay in the chain's own
        // precision.
        ctx.flop(v.x_local, &[v.x_k2, v.poly_lit], 5 * c2);
        ctx.flop(v.x_local, &[v.x_k2], 10 * c2);
        ctx.flop(v.x_local, &[v.x_nprime_of_x], 2 * c2);
    }

    /// Cumulative normal distribution. Fixed op charges are hoisted into
    /// [`Blackscholes::charge_option_ops`].
    fn cndf(&self, ctx: &mut ExecCtx<'_>, x: f64) -> f64 {
        let v = &self.v;
        let mut input = MpScalar::new(ctx, v.input_x, x);
        let sign = input.get() < 0.0;
        if sign {
            input.set(ctx, -input.get());
        }
        let mut x_input = MpScalar::new(ctx, v.x_input, input.get());
        let _ = &mut x_input;

        // expValues = exp(-0.5 * x * x)
        let mut exp_values = MpScalar::new(ctx, v.exp_values, 0.0);
        exp_values.set(ctx, (-0.5 * x_input.get() * x_input.get()).exp());

        // xNPrimeofX = expValues * invSqrt2xPI
        let inv = MpScalar::new(ctx, v.inv_sqrt_2xpi, 0.398_942_280_401_432_7);
        let mut nprime = MpScalar::new(ctx, v.x_nprime_of_x, 0.0);
        nprime.set(ctx, exp_values.get() * inv.get());

        // xK2 = 1 / (1 + 0.2316419 * |x|).
        let mut k2 = MpScalar::new(ctx, v.x_k2, 0.0);
        k2.set(ctx, 1.0 / (1.0 + 0.2316419 * x_input.get()));

        // Abramowitz–Stegun polynomial; coefficients are literals, so every
        // term mixes a double literal into the (possibly single) chain.
        const A: [f64; 5] = [
            0.319_381_530,
            -0.356_563_782,
            1.781_477_937,
            -1.821_255_978,
            1.330_274_429,
        ];
        let mut poly = 0.0;
        let mut kp = k2.get();
        for a in A {
            poly += a * kp;
            kp *= k2.get();
        }
        let mut local = MpScalar::new(ctx, v.x_local, 0.0);
        local.set(ctx, 1.0 - poly * nprime.get());

        let mut cnd = MpScalar::new(ctx, v.cnd, local.get());
        if sign {
            // Data-dependent: only negative inputs take the complement.
            ctx.flop(v.cnd, &[v.x_local], 1);
            cnd.set(ctx, 1.0 - local.get());
        }
        cnd.get()
    }

    /// One option price (`BlkSchlsEqEuroNoDiv`). Fixed op charges are
    /// hoisted into [`Blackscholes::charge_option_ops`].
    #[allow(clippy::too_many_arguments)]
    fn price_option(&self, ctx: &mut ExecCtx<'_>, s: f64, k: f64, r: f64, vol: f64, t: f64) -> f64 {
        let v = &self.v;
        let mut sqrt_time = MpScalar::new(ctx, v.x_sqrt_time, 0.0);
        sqrt_time.set(ctx, t.sqrt());

        let mut logv = MpScalar::new(ctx, v.log_values, 0.0);
        logv.set(ctx, (s / k).ln());

        let mut xd1 = MpScalar::new(ctx, v.x_d1, 0.0);
        xd1.set(ctx, (r + 0.5 * vol * vol) * t + logv.get());

        let mut xden = MpScalar::new(ctx, v.x_den, 0.0);
        xden.set(ctx, vol * sqrt_time.get());

        let mut d1v = MpScalar::new(ctx, v.d1, 0.0);
        d1v.set(ctx, xd1.get() / xden.get());

        let mut d2v = MpScalar::new(ctx, v.d2, 0.0);
        d2v.set(ctx, d1v.get() - xden.get());

        let nd1 = self.cndf(ctx, d1v.get());
        let mut nof1 = MpScalar::new(ctx, v.nof_xd1, nd1);
        let nd2 = self.cndf(ctx, d2v.get());
        let mut nof2 = MpScalar::new(ctx, v.nof_xd2, nd2);
        let _ = (&mut nof1, &mut nof2);

        let mut fut = MpScalar::new(ctx, v.future_value_x, 0.0);
        fut.set(ctx, k * (-r * t).exp());

        let mut opt = MpScalar::new(ctx, v.option_price, 0.0);
        opt.set(ctx, s * nof1.get() - fut.get() * nof2.get());
        opt.get()
    }
}

impl Default for Blackscholes {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Blackscholes {
    fn name(&self) -> &str {
        "blackscholes"
    }

    fn description(&self) -> &str {
        "European option pricing by solving the Black-Scholes PDE (PARSEC)"
    }

    fn kind(&self) -> BenchmarkKind {
        BenchmarkKind::Application
    }

    fn program(&self) -> &ProgramModel {
        &self.program
    }

    fn metric(&self) -> MetricKind {
        MetricKind::Mae
    }

    fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
        let v = &self.v;
        let data = self.input.load(ctx, v.data);
        // Unpack the aliased buffer into the five attribute views.
        let n = self.n;
        let view = |ctx: &mut ExecCtx<'_>, var: VarId, off: usize| {
            MpVec::from_gather(ctx, var, &data, n, |i| i * 5 + off)
        };
        let sptprice = view(ctx, v.sptprice, 0);
        let strike = view(ctx, v.strike, 1);
        let rate = view(ctx, v.rate, 2);
        let volatility = view(ctx, v.volatility, 3);
        let otime = view(ctx, v.otime, 4);
        let mut prices = ctx.alloc_vec(v.prices, n);

        let total = (self.runs * n) as u64;
        self.charge_option_ops(ctx, total);
        ctx.flop(v.acc, &[v.price], total);
        let mut acc = MpScalar::new(ctx, v.acc, 0.0);
        let mut price = MpScalar::new(ctx, v.price, 0.0);
        // Five attribute loads then the price store, per option; the
        // pricing itself runs over register-resident scalars.
        let mut group = mixp_float::StreamGroup::new();
        group
            .load(&sptprice, 0)
            .load(&strike, 0)
            .load(&rate, 0)
            .load(&volatility, 0)
            .load(&otime, 0)
            .store(&prices, 0);
        for _ in 0..self.runs {
            group.commit(ctx, n);
            for i in 0..n {
                let s = sptprice.raw()[i];
                let k = strike.raw()[i];
                let r = rate.raw()[i];
                let vol = volatility.raw()[i];
                let t = otime.raw()[i];
                let p = self.price_option(ctx, s, k, r, vol, t);
                price.set(ctx, p);
                prices.write_rounded(i, price.get());
                acc.set(ctx, acc.get() + price.get());
            }
        }
        prices.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Evaluator, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let app = Blackscholes::small();
        assert_eq!(app.program().total_variables(), 59);
        assert_eq!(app.program().total_clusters(), 50);
    }

    #[test]
    fn prices_are_finite_and_positive() {
        let app = Blackscholes::small();
        let cfg = app.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = app.run(&mut ctx);
        assert_eq!(out.len(), 128);
        assert!(out.iter().all(|p| p.is_finite()));
        // Call options on these parameter ranges have non-negative value.
        assert!(out.iter().all(|p| *p > -1e-9));
    }

    #[test]
    fn single_precision_error_is_moderate() {
        let app = Blackscholes::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(rec.quality > 1e-9, "prices in the tens must show error");
        assert!(rec.quality < 1e-3, "error {}", rec.quality);
    }

    #[test]
    fn transcendental_dominated_speedup_is_marginal() {
        let app = Blackscholes::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 0.9 && rec.speedup < 1.3,
            "Table IV says 1.04, got {}",
            rec.speedup
        );
    }
}
