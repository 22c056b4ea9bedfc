//! The same denied shapes as `index_bad.rs`, each suppressed with a
//! reasoned allow marker — the audit must stay silent.
use std::collections::HashMap;

pub fn first(values: &[u32]) -> u32 {
    // lint:allow(index, caller guarantees a non-empty slice)
    values[0]
}

pub fn lookup(map: &HashMap<u32, u32>, key: u32) -> u32 {
    map[&key] // lint:allow(index, every key is inserted at construction)
}
