//! Fixture: a public item that only its own test names.

pub fn only_tested() -> u8 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tested(), 1);
    }
}
