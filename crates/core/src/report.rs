//! Plain-text table rendering for the `repro` harness.

use crate::experiment::{CompressionRun, CrackRun, RateDistortionPoint, Table1Row, VizQualityRun};

/// Renders a list of rows as an aligned ASCII table.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut width: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "ragged table row");
        for (c, cell) in row.iter().enumerate() {
            width[c] = width[c].max(cell.len());
        }
    }
    let sep = |w: &[usize]| -> String {
        let mut s = String::from("+");
        for &wc in w {
            s.push_str(&"-".repeat(wc + 2));
            s.push('+');
        }
        s.push('\n');
        s
    };
    let fmt_row = |cells: &[String]| -> String {
        let mut s = String::from("|");
        for (c, cell) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", cell, w = width[c]));
        }
        s.push('\n');
        s
    };
    let mut out = sep(&width);
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push_str(&sep(&width));
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out.push_str(&sep(&width));
    out
}

fn sig(v: f64, digits: usize) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    if !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs().log10().floor() as i32;
    if (-3..6).contains(&mag) {
        let decimals = (digits as i32 - 1 - mag).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.prec$e}", prec = digits - 1)
    }
}

/// Table 1 in the paper's layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.levels.to_string(),
                r.grid_sizes
                    .iter()
                    .map(|d| format!("{}x{}x{}", d[0], d[1], d[2]))
                    .collect::<Vec<_>>()
                    .join(", "),
                r.densities
                    .iter()
                    .map(|d| format!("{:.1}%", d * 100.0))
                    .collect::<Vec<_>>()
                    .join(", "),
                r.total_cells.to_string(),
            ]
        })
        .collect();
    ascii_table(
        &[
            "Runs",
            "#AMR Levels",
            "Grid size of each level",
            "Density of each level",
            "Cells",
        ],
        &body,
    )
}

/// Table 2 in the paper's layout (CR here is the f32-baseline ratio, the
/// representation the paper's datasets use; CR(f64) also shown).
pub fn format_table2(rows: &[CompressionRun]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.compressor.to_string(),
                format!("{:.0e}", r.rel_error_bound),
                format!("{:.1}", r.compression_ratio_f32),
                format!("{:.1}", r.compression_ratio),
                format!("{:.2}", r.psnr_db),
                format!("{:.7}", r.ssim),
                sig(r.rssim, 3),
                sig(r.bits_per_value, 3),
            ]
        })
        .collect();
    ascii_table(
        &[
            "App",
            "Compressor",
            "Err bound",
            "CR (f32)",
            "CR (f64)",
            "PSNR",
            "SSIM",
            "R-SSIM",
            "bits/val",
        ],
        &body,
    )
}

/// Rate-distortion series (Figs. 12–13).
pub fn format_rate_distortion(pts: &[RateDistortionPoint]) -> String {
    let body: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.compressor.to_string(),
                format!("{:.0e}", p.rel_error_bound),
                format!("{:.3}", p.bits_per_value),
                format!("{:.2}", p.psnr_db),
                sig(p.rssim, 3),
            ]
        })
        .collect();
    ascii_table(
        &["Compressor", "Err bound", "bits/val", "PSNR (dB)", "R-SSIM"],
        &body,
    )
}

/// Crack/gap structure table (Fig. 1).
pub fn format_cracks(rows: &[CrackRun]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.method.to_string(),
                r.coarse_triangles.to_string(),
                r.fine_triangles.to_string(),
                r.gap.n_rim_edges.to_string(),
                sig(r.gap.mean_gap, 3),
                sig(r.gap.max_gap, 3),
            ]
        })
        .collect();
    ascii_table(
        &[
            "App",
            "Method",
            "Coarse tris",
            "Fine tris",
            "Rim edges",
            "Mean gap",
            "Max gap",
        ],
        &body,
    )
}

/// Visualization-quality table (Figs. 9–11).
pub fn format_viz_quality(rows: &[VizQualityRun]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.compressor.to_string(),
                format!("{:.0e}", r.rel_error_bound),
                r.method.to_string(),
                sig(r.surface_error_cells, 3),
                sig(r.surface_error_max_cells, 3),
                sig(r.roughness_increase, 3),
                sig(r.image_rssim, 3),
                r.triangles.to_string(),
            ]
        })
        .collect();
    ascii_table(
        &[
            "App",
            "Compressor",
            "Err bound",
            "Method",
            "Surf err (cells)",
            "Max err (cells)",
            "Roughness Δ",
            "Image R-SSIM",
            "Triangles",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_table_alignment() {
        let t = ascii_table(
            &["a", "long header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // 3 separators + header + 2 rows.
        assert_eq!(lines.len(), 6);
        let len = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == len), "ragged table:\n{t}");
        assert!(t.contains("| yyyy |"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        ascii_table(&["a", "b"], &[vec!["only one".into()]]);
    }

    #[test]
    fn sig_formatting() {
        assert_eq!(sig(0.0, 3), "0");
        assert_eq!(sig(123.456, 3), "123");
        assert_eq!(sig(0.000123456, 3), "1.23e-4");
        assert_eq!(sig(1.23e-7, 3), "1.23e-7");
        assert_eq!(sig(0.5, 3), "0.500");
    }
}
