//! Fixture: public items with a non-test caller or a justified waiver.

// lint: api-ok(the corpus's entry point; its callers live outside the corpus)
pub fn entry() -> u8 {
    callee()
}

pub fn callee() -> u8 {
    0
}
