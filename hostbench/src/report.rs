//! Output checks, metric records, and the result line.

use std::fmt::Write as _;

/// Every output check a run makes. A failed check is printed to stderr
/// the moment it fails and counts against `ok_ratio`.
#[derive(Default)]
pub struct Checks {
    passed: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
            eprintln!("hostbench: CHECK FAILED: {}", what());
        }
        ok
    }

    /// Share of checks that passed; `0.0` when none were made, so a run
    /// that checked nothing never reads as correct.
    pub fn ok_ratio(&self) -> f64 {
        let total = self.passed + self.failed;
        if total == 0 {
            0.0
        } else {
            self.passed as f64 / total as f64
        }
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `true` when at least one check ran and none failed.
    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.passed > 0
    }
}

/// Checks that every repetition produced the same fingerprint as the
/// first; one check per repetition after the first.
pub fn check_identical(checks: &mut Checks, what: &str, fingerprints: &[u64]) {
    for (rep, fp) in fingerprints.iter().enumerate().skip(1) {
        checks.check(*fp == fingerprints[0], || {
            format!(
                "{what}: repetition {rep} fingerprint {fp:016x} differs from repetition 0's {:016x}",
                fingerprints[0]
            )
        });
    }
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the figure summarises (operations, repetitions, or 1 for
    /// a deterministic count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one benchmark run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Operations attempted (steps, rounds, resumes, runs, layer calls).
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Metrics printed in the result line.
    pub metrics: Vec<Metric>,
    /// Figures printed only in the human-readable report.
    pub details: Vec<Metric>,
    /// Free-form lines printed after the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed operation: counts it and makes the run incorrect.
    pub fn error(&mut self, what: &str, e: impl std::fmt::Debug) {
        self.errors += 1;
        self.checks.check(false, || format!("{what}: {e:?}"));
    }

    pub fn correct(&self) -> bool {
        self.errors == 0 && self.checks.all_passed()
    }

    /// Operations that failed, counting failed checks as failed
    /// operations.
    pub fn failed(&self) -> u64 {
        self.errors.max(self.checks.failed())
    }

    /// The human-readable report: one line per figure with its unit and
    /// sample count.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().chain(&self.details) {
            let _ = writeln!(
                s,
                "{:<36} {:>16} {:<8} n={}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        for note in &self.notes {
            s.push_str(note);
            if !note.ends_with('\n') {
                s.push('\n');
            }
        }
        s
    }

    /// The single-line JSON result.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_value(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit `f64` carries.
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_fingerprint_mismatch_lowers_ok_ratio() {
        let mut clean = Checks::default();
        check_identical(&mut clean, "report", &[7, 7, 7, 7]);
        assert_eq!(clean.ok_ratio(), 1.0);
        assert!(clean.all_passed());

        let mut planted = Checks::default();
        check_identical(&mut planted, "report", &[7, 7, 8, 7]);
        assert!(planted.ok_ratio() < 1.0);
        assert_eq!(planted.failed(), 1);
        assert!(!planted.all_passed());
    }

    #[test]
    fn no_checks_is_not_correct() {
        let o = Outcome::default();
        assert_eq!(o.checks.ok_ratio(), 0.0);
        assert!(!o.correct());
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.checks.check(true, String::new);
        o.attempted = 3;
        o.metrics.push(Metric::new("setup_s", 0.25, "s", 4));
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
