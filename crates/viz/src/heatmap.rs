//! Performance-matrix heatmaps.
//!
//! Color map (matching the paper's figures): normalized performance 1.0
//! renders deep blue, degrading through light blue toward white at 0.5 and
//! below. Empty cells render as light gray gaps.

use vsensor_runtime::PerformanceMatrix;

/// Rendering options.
#[derive(Clone, Debug)]
pub struct HeatmapOptions {
    /// Downsample to at most this many columns (terminal width budget).
    pub max_cols: usize,
    /// Downsample to at most this many rows.
    pub max_rows: usize,
    /// Performance at or below this renders pure white.
    pub white_at: f64,
}

impl Default for HeatmapOptions {
    fn default() -> Self {
        HeatmapOptions {
            max_cols: 100,
            max_rows: 32,
            white_at: 0.5,
        }
    }
}

/// Map a normalized performance value to an RGB color.
///
/// 1.0 → deep blue (8, 48, 160); `white_at` and below → white. Linear
/// interpolation between.
pub(crate) fn color_of(perf: f64, white_at: f64) -> (u8, u8, u8) {
    let span = (1.0 - white_at).max(1e-9);
    let t = ((perf - white_at) / span).clamp(0.0, 1.0); // 0 = white, 1 = blue
    let lerp = |a: f64, b: f64| (a + (b - a) * t).round() as u8;
    (lerp(255.0, 8.0), lerp(255.0, 48.0), lerp(255.0, 160.0))
}

/// Downsampled cell value: mean of populated cells in the block, or `None`
/// when the whole block is empty.
fn block_value(m: &PerformanceMatrix, r0: usize, r1: usize, c0: usize, c1: usize) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in r0..r1 {
        for c in c0..c1 {
            if let Some(v) = m.cell(r, c) {
                sum += v;
                n += 1;
            }
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Iterate the downsampled grid as (row, col, value) with block bounds.
fn grid(m: &PerformanceMatrix, opts: &HeatmapOptions) -> (usize, usize, Vec<Option<f64>>) {
    let rows = m.ranks().min(opts.max_rows).max(1);
    let cols = m.bins().min(opts.max_cols).max(1);
    let mut values = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let r0 = r * m.ranks() / rows;
        let r1 = ((r + 1) * m.ranks() / rows).max(r0 + 1);
        for c in 0..cols {
            let c0 = c * m.bins() / cols;
            let c1 = ((c + 1) * m.bins() / cols).max(c0 + 1);
            values.push(block_value(m, r0, r1, c0, c1));
        }
    }
    (rows, cols, values)
}

/// Render as ANSI 24-bit color blocks for a terminal, with axes labels.
pub fn render_ansi(m: &PerformanceMatrix, title: &str, opts: &HeatmapOptions) -> String {
    let (rows, cols, values) = grid(m, opts);
    let total_secs = m.resolution().as_secs_f64() * m.bins() as f64;
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for r in 0..rows {
        // Rank axis label (first rank of the block).
        let rank0 = r * m.ranks() / rows;
        out.push_str(&format!("{rank0:>6} "));
        for c in 0..cols {
            match values[r * cols + c] {
                Some(v) => {
                    let (cr, cg, cb) = color_of(v, opts.white_at);
                    out.push_str(&format!("\x1b[48;2;{cr};{cg};{cb}m \x1b[0m"));
                }
                None => out.push_str("\x1b[48;2;230;230;230m \x1b[0m"),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>6} 0s {:>width$.1}s  (blue=best, white<= {:.2})\n",
        "",
        total_secs,
        opts.white_at,
        width = cols.saturating_sub(8).max(1)
    ));
    out
}

/// Render as a binary-less ASCII portable pixmap (P3) — viewable anywhere.
pub fn render_ppm(m: &PerformanceMatrix, opts: &HeatmapOptions) -> String {
    let (rows, cols, values) = grid(m, opts);
    let mut out = format!("P3\n{cols} {rows}\n255\n");
    for r in 0..rows {
        for c in 0..cols {
            let (cr, cg, cb) = match values[r * cols + c] {
                Some(v) => color_of(v, opts.white_at),
                None => (230, 230, 230),
            };
            out.push_str(&format!("{cr} {cg} {cb} "));
        }
        out.push('\n');
    }
    out
}

/// Render as a standalone SVG (one rect per downsampled cell).
pub fn render_svg(m: &PerformanceMatrix, title: &str, opts: &HeatmapOptions) -> String {
    let (rows, cols, values) = grid(m, opts);
    let cell = 6;
    let w = cols * cell + 40;
    let h = rows * cell + 30;
    let mut out = format!(r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">"#);
    out.push_str(&format!(
        r#"<text x="4" y="14" font-size="12" font-family="sans-serif">{title}</text>"#
    ));
    for r in 0..rows {
        for c in 0..cols {
            let (cr, cg, cb) = match values[r * cols + c] {
                Some(v) => color_of(v, opts.white_at),
                None => (230, 230, 230),
            };
            out.push_str(&format!(
                r#"<rect x="{}" y="{}" width="{cell}" height="{cell}" fill="rgb({cr},{cg},{cb})"/>"#,
                30 + c * cell,
                20 + r * cell,
            ));
        }
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::time::Duration;

    fn sample_matrix() -> PerformanceMatrix {
        let mut m = PerformanceMatrix::new(8, 50, Duration::from_millis(200));
        for r in 0..8 {
            for b in 0..50 {
                // Rank 3 degraded in bins 20..30.
                let v = if r == 3 && (20..30).contains(&b) {
                    0.4
                } else {
                    0.95
                };
                m.add(r, b as u64, v);
            }
        }
        m
    }

    #[test]
    fn color_endpoints() {
        assert_eq!(color_of(1.0, 0.5), (8, 48, 160));
        assert_eq!(color_of(0.5, 0.5), (255, 255, 255));
        assert_eq!(color_of(0.1, 0.5), (255, 255, 255), "clamped below");
    }

    #[test]
    fn color_is_monotone_toward_blue() {
        let (r1, ..) = color_of(0.6, 0.5);
        let (r2, ..) = color_of(0.9, 0.5);
        assert!(r2 < r1, "higher perf → less white in red channel");
    }

    #[test]
    fn ansi_contains_title_and_rows() {
        let s = render_ansi(&sample_matrix(), "Comp matrix", &HeatmapOptions::default());
        assert!(s.contains("Comp matrix"));
        assert!(s.lines().count() >= 9);
        assert!(s.contains("\x1b[48;2;"));
    }

    #[test]
    fn ppm_has_correct_header_and_size() {
        let opts = HeatmapOptions {
            max_cols: 25,
            max_rows: 8,
            white_at: 0.5,
        };
        let s = render_ppm(&sample_matrix(), &opts);
        let mut lines = s.lines();
        assert_eq!(lines.next(), Some("P3"));
        assert_eq!(lines.next(), Some("25 8"));
        assert_eq!(lines.next(), Some("255"));
        assert_eq!(lines.count(), 8);
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let s = render_svg(&sample_matrix(), "net", &HeatmapOptions::default());
        assert!(s.starts_with("<svg"));
        assert!(s.ends_with("</svg>"));
        assert!(s.matches("<rect").count() >= 8 * 50);
    }

    #[test]
    fn degraded_region_renders_whiter() {
        // Compare the colors of a healthy cell and the degraded cell in
        // the PPM output by rendering at full resolution.
        let opts = HeatmapOptions {
            max_cols: 50,
            max_rows: 8,
            white_at: 0.5,
        };
        let m = sample_matrix();
        let healthy = color_of(m.cell(0, 25).unwrap(), 0.5);
        let degraded = color_of(m.cell(3, 25).unwrap(), 0.5);
        assert!(degraded.0 > healthy.0, "degraded is whiter");
        let _ = opts;
    }

    #[test]
    fn downsampling_handles_tiny_matrices() {
        let m = PerformanceMatrix::new(1, 1, Duration::from_millis(200));
        let s = render_ansi(&m, "tiny", &HeatmapOptions::default());
        assert!(s.contains("tiny"));
    }
}
