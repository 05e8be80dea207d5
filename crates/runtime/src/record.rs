//! Record types exchanged between ranks and the analysis server.

use crate::dynrules::Bucket;
use cluster_sim::time::Duration;
use vsensor_lang::SensorId;

/// Component kinds, mirroring the analysis's snippet types without a
/// dependency on the analysis crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SensorKind {
    /// CPU/memory work.
    Computation,
    /// Communication.
    Network,
    /// File I/O.
    Io,
}

impl SensorKind {
    /// All kinds, in display order.
    pub const ALL: [SensorKind; 3] = [SensorKind::Computation, SensorKind::Network, SensorKind::Io];

    /// Dense index into [`Self::ALL`]-ordered arrays (see
    /// [`crate::engine::KindMap`]).
    pub const fn index(self) -> usize {
        match self {
            SensorKind::Computation => 0,
            SensorKind::Network => 1,
            SensorKind::Io => 2,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SensorKind::Computation => "Comp",
            SensorKind::Network => "Net",
            SensorKind::Io => "IO",
        }
    }
}

/// Static description of one instrumented sensor, shared by every rank.
#[derive(Clone, Debug)]
pub struct SensorInfo {
    /// Sensor ID (dense).
    pub sensor: SensorId,
    /// Component kind.
    pub kind: SensorKind,
    /// Whether the workload is identical across processes (eligible for
    /// inter-process comparison).
    pub process_invariant: bool,
    /// Human-readable location, e.g. `"cg.mh:42 (L7)"`.
    pub location: String,
}

/// One smoothed record: the average execution time of a sensor during one
/// time slice on one rank (§5.1 produces exactly one record per sensor per
/// slice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceRecord {
    /// Which sensor.
    pub sensor: SensorId,
    /// Which time slice (global index: `time / slice_width`).
    pub slice: u64,
    /// Average duration of the senses in this slice.
    pub avg: Duration,
    /// Number of senses aggregated.
    pub count: u32,
    /// Dynamic-rule group of the record.
    pub bucket: Bucket,
}

impl SliceRecord {
    /// Serialized size in bytes: the length of [`Self::to_wire`], also
    /// used to account the server's data volume (§6.4 compares vSensor's
    /// 8.8 MB against ITAC's 501.5 MB).
    pub const WIRE_BYTES: u64 = 4 + 8 + 8 + 4 + 4;

    /// The record's one serialisation: sensor, slice, average (ns), count
    /// and bucket, each little-endian, in that order. The batch CRC folds
    /// exactly these bytes.
    pub fn to_wire(&self) -> [u8; Self::WIRE_BYTES as usize] {
        let mut w = [0u8; Self::WIRE_BYTES as usize];
        w[0..4].copy_from_slice(&self.sensor.0.to_le_bytes());
        w[4..12].copy_from_slice(&self.slice.to_le_bytes());
        w[12..20].copy_from_slice(&self.avg.as_nanos().to_le_bytes());
        w[20..24].copy_from_slice(&self.count.to_le_bytes());
        w[24..28].copy_from_slice(&self.bucket.0.to_le_bytes());
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        assert_eq!(SensorKind::Computation.label(), "Comp");
        assert_eq!(SensorKind::Network.label(), "Net");
        assert_eq!(SensorKind::Io.label(), "IO");
        assert_eq!(SensorKind::ALL.len(), 3);
    }

    #[test]
    fn wire_size_is_plausible() {
        // A record is a handful of scalars — small enough that thousands
        // of ranks batching them stay in the KB/s range.
        const { assert!(SliceRecord::WIRE_BYTES <= 32) };
    }

    #[test]
    fn wire_layout_is_little_endian_fields_in_order() {
        let r = SliceRecord {
            sensor: SensorId(0x0403_0201),
            slice: 0x0C0B_0A09_0807_0605,
            avg: Duration::from_nanos(0x1413_1211_100F_0E0D),
            count: 0x1817_1615,
            bucket: Bucket(0x1C1B_1A19),
        };
        let expected: Vec<u8> = (1..=28).collect();
        assert_eq!(r.to_wire().as_slice(), expected.as_slice());
    }
}
