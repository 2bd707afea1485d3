//! Fixture: a public item that only its own test names.

pub fn only_tested() -> u8 {
    1
}

/// A ledger whose field shares its name with a fn.
pub struct Ledger {
    pub total: u64,
}

// lint: api-ok(the corpus's entry point; its callers live outside the corpus)
pub fn balance(ledger: &Ledger) -> u64 {
    let total = ledger.total;
    total
}

/// A field and a local are named `total`, but nothing outside the tests
/// calls this: a name match is not a call.
pub fn total(ledger: &Ledger) -> u64 {
    ledger.total
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tested(), 1);
        assert_eq!(super::total(&super::Ledger { total: 2 }), 2);
    }
}
