//! The result line every run prints last, and the checks that feed it.

/// Metrics of one run plus its operation and correctness accounting.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Check failures, one message each; empty means correct.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunReport {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records the outcome of a check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result object as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
