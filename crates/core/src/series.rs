/// A labelled (x, y) data series — one line of a paper figure, printable
/// as aligned text columns ([`Series::to_table`]) for terminal output and
/// the `results/*.tsv` artefacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "GM in the center").
    pub label: String,
    /// (x, y) points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the largest x, if any.
    #[must_use]
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|(_, y)| *y)
    }

    /// Whether y never decreases along x (used by shape checks in tests).
    #[must_use]
    pub fn is_monotonic_nondecreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9)
    }

    /// Renders the series as `x<TAB>y` lines, prefixed by a `# label`
    /// comment — the format the bench binaries print.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut s = format!("# {}\n", self.label);
        for (x, y) in &self.points {
            s.push_str(&format!("{x:.4}\t{y:.4}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_shape_checks() {
        let mut s = Series::new("test");
        s.push(0.0, 0.1);
        s.push(1.0, 0.5);
        s.push(2.0, 0.5);
        assert!(s.is_monotonic_nondecreasing());
        assert_eq!(s.last_y(), Some(0.5));
        s.push(3.0, 0.2);
        assert!(!s.is_monotonic_nondecreasing());
    }

    #[test]
    fn table_format() {
        let mut s = Series::new("lbl");
        s.push(1.0, 2.0);
        let t = s.to_table();
        assert!(t.starts_with("# lbl\n"));
        assert!(t.contains("1.0000\t2.0000"));
    }

    #[test]
    fn clone_and_eq() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        assert_eq!(s.clone(), s);
    }
}
