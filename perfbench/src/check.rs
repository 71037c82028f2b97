//! Output checks computed apart from the program, and the answer digest.
//!
//! Range answers are checked against the benchmark's own prefix sums: of the
//! released estimate x̂ (consistency: every answer is the sum of x̂ over its
//! range) and of the true data x (accuracy: the observed squared error,
//! scaled by the engine's analytic `expected_rms_error`, must average to 1
//! over many independent releases).

use mm_core::UserLedger;

/// Running prefix sums `p[i] = v[0] + … + v[i-1]`, with `p.len() == v.len() + 1`.
pub fn prefix_sums(v: &[f64]) -> Vec<f64> {
    let mut p = Vec::with_capacity(v.len() + 1);
    let mut acc = 0.0;
    p.push(acc);
    for &x in v {
        acc += x;
        p.push(acc);
    }
    p
}

/// Releases from which the accuracy check estimates the per-release variance.
const MIN_RELEASES_FOR_VARIANCE: u64 = 30;

/// Accumulates checks over every released answer of a run.
#[derive(Debug, Default)]
pub struct Checker {
    failures: Vec<String>,
    failed_checks: u64,
    releases: u64,
    ratio_sum: f64,
    ratio_sq_sum: f64,
    rms_sum: f64,
    digest: u64,
}

/// The splitmix64 finaliser: a bijective avalanche of `z`.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Checker {
    /// Records a failed check (the first few messages are kept).
    pub fn fail(&mut self, message: String) {
        self.failed_checks += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Checks one released answer to the interval queries `intervals`
    /// (inclusive, in answer order) against the data whose prefix sums are
    /// `truth`, and folds it into the digest under `(request, index)`.
    pub fn answer(
        &mut self,
        (request, index): (u64, usize),
        intervals: &[(usize, usize)],
        truth: &[f64],
        answers: &[f64],
        estimate: &[f64],
        expected_rms_error: f64,
    ) {
        if answers.len() != intervals.len() || estimate.len() + 1 != truth.len() {
            self.fail(format!(
                "request {request}: {} answers and {} estimate cells for {} queries over {} cells",
                answers.len(),
                estimate.len(),
                intervals.len(),
                truth.len() - 1
            ));
            return;
        }
        if !(expected_rms_error.is_finite() && expected_rms_error > 0.0) {
            self.fail(format!(
                "request {request}: expected RMS error {expected_rms_error} is not positive"
            ));
            return;
        }
        let est = prefix_sums(estimate);
        let abs: Vec<f64> = estimate.iter().map(|v| v.abs()).collect();
        let est_abs = prefix_sums(&abs);
        let mut squared_error = 0.0;
        let mut h = splitmix(request ^ splitmix(index as u64));
        for (q, (&(lo, hi), &a)) in intervals.iter().zip(answers).enumerate() {
            let consistent = est[hi + 1] - est[lo];
            // Both sides round differently; the error of a difference of
            // prefix sums is bounded by the magnitude of the prefixes.
            let tol = 1e-9 * (est_abs[hi + 1] + 1.0);
            if (a - consistent).abs() > tol {
                self.fail(format!(
                    "request {request} answer {index} query {q} [{lo}, {hi}]: released {a} but \
                     the estimate sums to {consistent}"
                ));
                return;
            }
            let e = a - (truth[hi + 1] - truth[lo]);
            squared_error += e * e;
            h = splitmix(h ^ a.to_bits());
        }
        for &v in estimate {
            h = splitmix(h ^ v.to_bits());
        }
        let m = intervals.len() as f64;
        let ratio = squared_error / (m * expected_rms_error * expected_rms_error);
        self.releases += 1;
        self.ratio_sum += ratio;
        self.ratio_sq_sum += ratio * ratio;
        self.rms_sum += expected_rms_error;
        // Order-independent fold: clients finish requests in any order.
        self.digest = self.digest.wrapping_add(h);
    }

    /// Checks that a ledger was charged exactly once per released answer at
    /// `epsilon` each (sequential composition) and still has headroom.
    pub fn ledger(&mut self, ledger: &UserLedger, released: u64, epsilon: f64) {
        let events = ledger.events().len() as u64;
        if events != released {
            self.fail(format!(
                "ledger {}: {events} charges for {released} released answers",
                ledger.principal()
            ));
        }
        let expected = released as f64 * epsilon;
        let spent = ledger.spent().epsilon;
        if (spent - expected).abs() > 1e-9 * expected.max(1.0) {
            self.fail(format!(
                "ledger {}: spent ε = {spent}, expected {expected} for {released} answers",
                ledger.principal()
            ));
        }
        if ledger.remaining().epsilon <= 0.0 {
            self.fail(format!(
                "ledger {} has no headroom left",
                ledger.principal()
            ));
        }
    }

    /// Merges another client's checker into this one.
    pub fn merge(&mut self, other: Checker) {
        self.failed_checks += other.failed_checks;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.releases += other.releases;
        self.ratio_sum += other.ratio_sum;
        self.ratio_sq_sum += other.ratio_sq_sum;
        self.rms_sum += other.rms_sum;
        self.digest = self.digest.wrapping_add(other.digest);
    }

    /// The accuracy check over the whole run: the mean of
    /// `‖W x̂ − W x‖² / (m · expected_rms_error²)` over independent releases
    /// has expectation 1 under Gaussian noise.  It must lie within six
    /// standard errors of 1 and never outside a 1% band because of a tiny
    /// standard error.  The per-release variance is estimated from the
    /// releases once there are [`MIN_RELEASES_FOR_VARIANCE`]; below that it
    /// is taken at its bound 2 (a Gaussian quadratic form `q` has
    /// `Var q ≤ 2 (E q)²`).
    pub fn finish(&mut self) {
        if self.releases == 0 {
            self.fail("no releases to check".into());
            return;
        }
        let n = self.releases as f64;
        let mean = self.ratio_sum / n;
        let var = if self.releases >= MIN_RELEASES_FOR_VARIANCE {
            ((self.ratio_sq_sum - n * mean * mean) / (n - 1.0)).max(0.0)
        } else {
            2.0
        };
        let tol = 6.0 * (var / n).sqrt() + 0.01;
        if (mean - 1.0).abs() > tol {
            self.fail(format!(
                "observed squared error is {mean} times the analytic prediction over {} \
                 releases (tolerance ±{tol})",
                self.releases
            ));
        }
    }

    pub fn mean_expected_rms_error(&self) -> f64 {
        self.rms_sum / self.releases.max(1) as f64
    }

    /// Mean observed-over-predicted squared error ratio.
    pub fn error_ratio(&self) -> f64 {
        self.ratio_sum / self.releases.max(1) as f64
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }

    pub fn failed_checks(&self) -> u64 {
        self.failed_checks
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
