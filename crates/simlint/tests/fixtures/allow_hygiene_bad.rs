//! Annotation hygiene fixture: allowances that are malformed or that
//! cover no finding.

pub fn per_event(n: usize) -> Vec<u64> {
    // simlint::allow(hot-path-alloc)
    vec![0; n]
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
    fn test_allocations_are_exempt_already() {
        // simlint::allow(hot-path-alloc, test regions are exempt anyway)
        let v = vec![1u8];
        assert_eq!(v.len(), 1);
    }
}
