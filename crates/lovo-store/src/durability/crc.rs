//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the checksum
//! every on-disk structure in the durability layer carries.
//!
//! Hand-rolled because the workspace builds offline: the tables are generated
//! at compile time by a `const fn`. Reopening a store verifies every
//! section of every segment file, whole vector sections included, so
//! checksumming sits on the cold-open path for gigabyte-scale stores, and
//! the loop uses the slicing-by-8 technique: eight
//! bytes are folded per iteration through eight precomputed tables, giving a
//! several-fold speedup over byte-at-a-time while producing *bit-identical*
//! checksums (the known-vector tests pin this).

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic one-step-per-byte
/// table; `TABLES[t][b]` advances byte `b` through `t` additional zero bytes,
/// which is what lets one iteration consume eight input bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32 of `bytes` (full-buffer convenience over [`Crc32::update`]).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental CRC32 state, for checksumming a structure built in pieces.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state (all-ones preset, per the IEEE convention).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum: eight bytes per iteration
    /// through the slicing tables, byte-at-a-time for the tail.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // chunks_exact(8) guarantees exactly 8 bytes per chunk, and every
            // table index is masked to 0..256 (each table has 256 entries).
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            let idx = ((state ^ u32::from(byte)) & 0xFF) as usize;
            state = (state >> 8) ^ TABLES[0][idx];
        }
        self.state = state;
    }

    /// Finalizes (final xor-out) without consuming the state.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut crc = Crc32::new();
        for chunk in data.chunks(7) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(data));
    }

    #[test]
    fn sliced_path_matches_byte_at_a_time_reference() {
        // The slicing-by-8 loop must be bit-identical to the canonical
        // one-byte recurrence for every length mod 8 and every alignment of
        // incremental splits.
        fn reference(bytes: &[u8]) -> u32 {
            let mut state = 0xFFFF_FFFFu32;
            for &byte in bytes {
                let idx = ((state ^ u32::from(byte)) & 0xFF) as usize;
                state = (state >> 8) ^ TABLES[0][idx];
            }
            state ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..1021u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1000, 1021] {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
        for split in [1usize, 3, 8, 13] {
            let mut crc = Crc32::new();
            for chunk in data.chunks(split) {
                crc.update(chunk);
            }
            assert_eq!(crc.finish(), reference(&data), "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0u8..=255).collect();
        let base = crc32(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }
}
