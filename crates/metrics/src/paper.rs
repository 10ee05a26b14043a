//! The paper's published evaluation numbers — the single source of
//! truth shared by the bench harnesses, the `numa-lab` experiment
//! runner, and the benchmark: the lab's sweep reports embed them and
//! `numa-lab table` prints them next to the measured rows.

/// Processor count used by the evaluation runs (Table 4 says "runs on 7
/// processors"; Table 3 reuses it).
pub const EVAL_CPUS: usize = 7;

/// One Table 3 row: (name, t_global, t_numa, t_local, alpha (None = na),
/// beta, gamma).
pub type PaperTable3Row = (&'static str, f64, f64, f64, Option<f64>, f64, f64);

/// One Table 4 row: (name, s_numa, s_global, delta_s, t_numa, overhead %).
pub type PaperTable4Row = (&'static str, f64, f64, Option<f64>, f64, f64);

/// Paper values for Table 3, in row order.
pub const PAPER_TABLE3: [PaperTable3Row; 8] = [
    ("ParMult", 67.4, 67.4, 67.3, None, 0.00, 1.00),
    ("Gfetch", 60.2, 60.2, 26.5, Some(0.0), 1.0, 2.27),
    ("IMatMult", 82.1, 69.0, 68.2, Some(0.94), 0.26, 1.01),
    ("Primes1", 18502.2, 17413.9, 17413.3, Some(1.0), 0.06, 1.00),
    ("Primes2", 5754.3, 4972.9, 4968.9, Some(0.99), 0.16, 1.00),
    ("Primes3", 39.1, 37.4, 28.8, Some(0.17), 0.36, 1.30),
    ("FFT", 687.4, 449.0, 438.4, Some(0.96), 0.56, 1.02),
    ("PlyTrace", 56.9, 38.8, 38.0, Some(0.96), 0.50, 1.02),
];

/// Paper values for Table 4, in row order.
pub const PAPER_TABLE4: [PaperTable4Row; 5] = [
    ("IMatMult", 4.5, 1.2, Some(3.3), 82.1, 4.0),
    ("Primes1", 1.4, 2.3, None, 17413.9, 0.0),
    ("Primes2", 29.9, 8.5, Some(21.4), 4972.9, 0.4),
    ("Primes3", 11.2, 1.9, Some(9.3), 37.4, 24.9),
    ("FFT", 21.1, 10.0, Some(11.1), 449.0, 2.5),
];

/// Paper alpha for the measured row, for side-by-side printing.
pub fn paper_alpha(name: &str) -> Option<f64> {
    PAPER_TABLE3.iter().find(|r| r.0 == name).and_then(|r| r.4)
}

/// Paper beta/gamma lookups.
pub fn paper_beta_gamma(name: &str) -> (f64, f64) {
    PAPER_TABLE3
        .iter()
        .find(|r| r.0 == name)
        .map(|r| (r.5, r.6))
        .unwrap_or((f64::NAN, f64::NAN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent() {
        assert_eq!(PAPER_TABLE3.len(), 8);
        assert_eq!(PAPER_TABLE4.len(), 5);
        assert_eq!(paper_alpha("Gfetch"), Some(0.0));
        assert_eq!(paper_alpha("ParMult"), None);
        let (b, g) = paper_beta_gamma("Primes3");
        assert_eq!((b, g), (0.36, 1.30));
        assert!(paper_beta_gamma("NoSuchApp").0.is_nan());
    }
}
