//! Every shape the index audit denies, one per function, beside a range
//! slice it leaves alone. Test code at the bottom indexes freely and must
//! stay exempt.
use std::collections::HashMap;

pub fn first(values: &[u32]) -> u32 {
    values[0]
}

pub fn lookup(map: &HashMap<u32, u32>, key: u32) -> u32 {
    map[&key]
}

pub fn head(values: &[u32]) -> &[u32] {
    &values[..1]
}

#[cfg(test)]
mod tests {
    #[test]
    fn asserts_may_index() {
        let values = vec![1u32];
        assert_eq!(values[0], 1);
    }
}
