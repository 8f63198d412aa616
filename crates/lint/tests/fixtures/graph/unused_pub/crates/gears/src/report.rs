/// Returned by the used `summarize`: not flagged.
pub struct ShiftSummary {
    pub counts: ShiftCounts,
}

/// A pub field of the rescued `ShiftSummary` names it: not flagged.
pub struct ShiftCounts {
    pub up: u32,
}

pub fn summarize() -> ShiftSummary {
    ShiftSummary { counts: ShiftCounts { up: 0 } }
}

/// Called only by this file's unit test: flagged.
pub fn only_tested() -> u32 {
    7
}

// lint:allow(unused-pub) called only from the crate's doc example
pub fn doc_example_only() -> u32 {
    1
}

// lint:allow(unused-pub) stale: the facade calls this function
pub fn shift_up() -> u32 {
    2
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested_is_seven() {
        assert_eq!(super::only_tested(), 7);
    }
}
