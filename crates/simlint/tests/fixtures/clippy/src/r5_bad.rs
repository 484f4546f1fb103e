//! R5 bad example: unwrap/expect in hot-path (non-test) code.

// As in the six hot files.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub fn pop_front(v: &mut Vec<u32>) -> u32 {
    v.pop().unwrap() //~ clippy::unwrap_used
}

pub fn take(o: Option<u32>) -> u32 {
    o.expect("caller checked") //~ clippy::expect_used
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_test_code_is_fine() {
        let x = [1u32].first().copied();
        assert_eq!(x.unwrap(), 1);
        let y = "2".parse::<u32>();
        assert_eq!(y.expect("test data"), 2);
    }
}
