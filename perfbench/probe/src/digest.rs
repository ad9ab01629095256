//! Output digests shared with the Python harness.
//!
//! * [`Crc32`] is the zlib CRC-32 (IEEE polynomial), so a stream hashed here
//!   and one hashed by Python's `zlib.crc32` agree byte for byte.
//! * [`SetDigest`] is order-independent: a wrapping sum of a 64-bit mix of
//!   each clique's sorted member list, so two enumerators that emit the same
//!   clique set in different orders produce the same value.

use std::io::{self, Write};

use hbbmc::{CliqueLineFormat, CliqueReporter, VertexId, WriterReporter};

/// Slice-by-8 CRC-32 (IEEE 802.3, reflected, as zlib computes it).
pub struct Crc32 {
    tables: Box<[[u32; 256]; 8]>,
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        let mut tables = Box::new([[0u32; 256]; 8]);
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            tables[0][i as usize] = c;
        }
        for i in 0..256 {
            for t in 1..8 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            }
        }
        Crc32 {
            tables,
            state: 0xFFFF_FFFF,
        }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let t = &self.tables;
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    pub fn value(&self) -> u32 {
        !self.state
    }
}

/// A [`Write`] sink that keeps only the byte count and the CRC-32.
pub struct DigestSink {
    pub bytes: u64,
    pub crc: Crc32,
}

impl DigestSink {
    pub fn new() -> Self {
        DigestSink {
            bytes: 0,
            crc: Crc32::new(),
        }
    }
}

impl Write for DigestSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.crc.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`Write`] sink that only counts bytes (the emit layer's replay target).
#[derive(Default)]
pub struct CountingSink {
    pub bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Order-independent digest of a clique set.
#[derive(Default)]
pub struct SetDigest {
    pub sum: u64,
    sorted: Vec<VertexId>,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SetDigest {
    pub fn add(&mut self, clique: &[VertexId]) {
        self.sorted.clear();
        self.sorted.extend_from_slice(clique);
        self.sorted.sort_unstable();
        let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ clique.len() as u64;
        for &v in &self.sorted {
            h = mix(h ^ v as u64);
        }
        self.sum = self.sum.wrapping_add(mix(h));
    }
}

/// Everything the reference check needs from one enumeration: the ordered
/// text stream's length and CRC-32 (what `mce enumerate --output text`
/// must reproduce), the order-independent set digest, the clique count and
/// the largest clique size.
pub struct ReferenceReporter {
    pub writer: WriterReporter<DigestSink>,
    pub set: SetDigest,
    pub count: u64,
    pub max_size: usize,
}

impl ReferenceReporter {
    pub fn new() -> Self {
        ReferenceReporter {
            writer: WriterReporter::new(DigestSink::new(), CliqueLineFormat::Text),
            set: SetDigest::default(),
            count: 0,
            max_size: 0,
        }
    }
}

impl CliqueReporter for ReferenceReporter {
    fn report(&mut self, clique: &[VertexId]) {
        self.writer.report(clique);
        self.set.add(clique);
        self.count += 1;
        self.max_size = self.max_size.max(clique.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_zlib_check_value() {
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.value(), 0xCBF4_3926);
        let mut split = Crc32::new();
        split.update(b"12345");
        split.update(b"6789");
        assert_eq!(split.value(), 0xCBF4_3926);
    }

    #[test]
    fn set_digest_ignores_order() {
        let mut a = SetDigest::default();
        a.add(&[3, 1, 2]);
        a.add(&[4, 5]);
        let mut b = SetDigest::default();
        b.add(&[5, 4]);
        b.add(&[2, 3, 1]);
        assert_eq!(a.sum, b.sum);
    }
}
