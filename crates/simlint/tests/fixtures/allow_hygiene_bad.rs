//! Annotation hygiene fixture: allowances that are malformed or that
//! cover no finding.

pub fn total(v: &[f64]) -> f64 {
    // simlint::allow(float-order)
    v.iter().sum::<f64>()
}

// simlint::allow(float-order, nothing below accumulates a float)
pub fn plain(a: u64) -> u64 {
    a + 1
}

// simlint::allow(hot-path-unwrap, a rule that clippy enforces now)
pub fn moved(o: Option<u32>) -> u32 {
    o.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_sums_are_exempt_already() {
        // simlint::allow(float-order, test regions are exempt anyway)
        let s = [1.0f64].iter().sum::<f64>();
        assert_eq!(s, 1.0);
    }
}
