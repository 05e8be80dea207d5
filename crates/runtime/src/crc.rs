//! The one CRC-32 in the crate.
//!
//! Telemetry batches ([`crate::transport::TelemetryBatch`]), write-ahead
//! log frames ([`crate::wal`]) and the cross-run baseline file
//! ([`crate::baseline`]) all checksum through this folder, so the
//! polynomial and the init/final inversion are stated in one place.

/// Bitwise CRC-32 (IEEE 802.3) folder. Table-free on purpose: a faster
/// implementation is a one-place change here with its own measurement.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    #[inline]
    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u32;
            for _ in 0..8 {
                let mask = (self.0 & 1).wrapping_neg();
                self.0 = (self.0 >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_ieee_check_value() {
        // The standard CRC-32 check: "123456789" -> 0xCBF43926. Pins the
        // polynomial, the init value and the final inversion together.
        let mut crc = Crc32::new();
        crc.eat(b"1234");
        crc.eat(b"56789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }
}
