//! Result views: each table and figure of the paper declared once, as one
//! column list that renders its ASCII table, its `results.json` rows and
//! (for the compression runs) its `SUMMARY` entries.

use amrviz_json::Json;

use crate::experiment::{CompressionRun, CrackRun, Table1Row, VizQualityRun};
use Cell::*;

/// Renders a list of rows as an aligned ASCII table.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut width: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in width.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let cells = cells.iter().zip(&width).map(|(c, w)| format!(" {c:<w$} |"));
        format!("|{}\n", cells.collect::<String>())
    };
    let sep: String = width.iter().map(|w| "-".repeat(w + 2) + "+").collect();
    let sep = format!("+{sep}\n");
    let mut out = format!("{sep}{}{sep}", line(headers.to_vec()));
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out + &sep
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

/// One cell of a result row: its `results.json` value and how a table
/// prints it.
enum Cell {
    Text(String),
    Count(usize),
    /// A number printed with this many decimals.
    Fixed(f64, usize),
    /// An error bound, printed as `1e-3`.
    Bound(f64),
    /// A number printed with this many significant digits.
    Sig(f64, usize),
    /// A value with its own table text (Table 1's per-level lists).
    Shown(Json, String),
    /// A number no table prints.
    Num(f64),
    /// No value: the row leaves the key out.
    Absent,
}

fn text(s: &str) -> Cell {
    Text(s.to_string())
}

impl Cell {
    fn table_text(&self) -> String {
        match self {
            Text(s) | Shown(_, s) => s.clone(),
            Count(n) => n.to_string(),
            Fixed(v, decimals) => format!("{v:.decimals$}"),
            Bound(v) => format!("{v:.0e}"),
            Sig(v, digits) => sig(*v, *digits),
            Num(_) | Absent => String::new(),
        }
    }

    fn json(self) -> Option<Json> {
        Some(match self {
            Text(s) => s.into(),
            Count(n) => n.into(),
            Fixed(v, _) | Bound(v) | Sig(v, _) | Num(v) => v.into(),
            Shown(value, _) => value,
            Absent => return None,
        })
    }
}

/// One column of a view: its `results.json` key, its table header (`None`
/// for a key only `results.json` carries) and its cell.
type Column<R> = (&'static str, Option<&'static str>, fn(&R) -> Cell);

/// A result view: its columns in `results.json` key order, and the keys of
/// the table's columns in print order where that is not the list order.
pub struct View<R: 'static> {
    columns: &'static [Column<R>],
    table_order: Option<&'static [&'static str]>,
}

impl<R> View<R> {
    /// The aligned ASCII table of `rows`.
    pub fn table(&self, rows: &[R]) -> String {
        let by_key = |key: &&str| self.columns.iter().find(|c| c.0 == *key);
        let columns: Vec<&Column<R>> = match self.table_order {
            Some(keys) => keys.iter().filter_map(by_key).collect(),
            None => self.columns.iter().filter(|c| c.1.is_some()).collect(),
        };
        let headers: Vec<&str> = columns.iter().filter_map(|c| c.1).collect();
        let cells = |r: &R| columns.iter().map(|c| (c.2)(r).table_text()).collect();
        ascii_table(&headers, &rows.iter().map(cells).collect::<Vec<_>>())
    }

    /// The `results.json` array of `rows`, one object per row.
    pub fn json(&self, rows: &[R]) -> Json {
        let object = |r: &R| {
            let mut o = Json::obj();
            for (key, _, cell) in self.columns {
                if let Some(value) = cell(r).json() {
                    o.set(key, value);
                }
            }
            o
        };
        Json::Arr(rows.iter().map(object).collect())
    }
}

/// A per-level list: its values, and in the table `show` of each,
/// comma-separated.
fn per_level<T: Clone + Into<Json>>(values: &[T], show: fn(&T) -> String) -> Cell {
    let text: Vec<String> = values.iter().map(show).collect();
    Shown(values.to_vec().into(), text.join(", "))
}

/// Table 1: dataset structure.
pub const TABLE1: View<Table1Row> = View {
    columns: &[
        ("app", Some("Runs"), |r| text(&r.scenario)),
        ("levels", Some("#AMR Levels"), |r| Count(r.levels)),
        ("grid_sizes", Some("Grid size of each level"), |r| {
            per_level(&r.grid_sizes, |d| format!("{}x{}x{}", d[0], d[1], d[2]))
        }),
        ("densities", Some("Density of each level"), |r| {
            per_level(&r.densities, |d| format!("{:.1}%", d * 100.0))
        }),
        ("total_cells", Some("Cells"), |r| Count(r.total_cells)),
    ],
    table_order: None,
};

/// A run's trace id as the journal prints it: a hex string, since
/// `crates/json` numbers are f64 and would round a raw u64 id. Absent when
/// the recorder was off.
fn trace(r: &CompressionRun) -> Cell {
    match r.trace_id {
        0 => Absent,
        id => Text(format!("{id:016x}")),
    }
}

/// Table 2, which the enumerated suite shares. Its table keeps the paper's
/// layout — CR against f32 (its datasets are single precision) first,
/// bits/val last — and its `results.json` keys their older order, so the
/// table names its column order apart.
pub const TABLE2: View<CompressionRun> = View {
    columns: &[
        // Key stays "app" for continuity with pre-recipe summary.jsonl.
        ("app", Some("App"), |r| text(&r.scenario)),
        ("recipe", None, |r| text(&r.recipe)),
        ("compressor", Some("Compressor"), |r| text(r.compressor)),
        ("rel_error_bound", Some("Err bound"), |r| {
            Bound(r.rel_error_bound)
        }),
        ("abs_error_bound", None, |r| Num(r.abs_error_bound)),
        ("compression_ratio", Some("CR (f64)"), |r| {
            Fixed(r.compression_ratio, 1)
        }),
        ("compression_ratio_f32", Some("CR (f32)"), |r| {
            Fixed(r.compression_ratio_f32, 1)
        }),
        ("bits_per_value", Some("bits/val"), |r| {
            Sig(r.bits_per_value, 3)
        }),
        ("psnr_db", Some("PSNR"), |r| Fixed(r.psnr_db, 2)),
        ("ssim", Some("SSIM"), |r| Fixed(r.ssim, 7)),
        ("rssim", Some("R-SSIM"), |r| Sig(r.rssim, 3)),
        ("max_abs_error", None, |r| Num(r.max_abs_error)),
        ("compress_seconds", None, |r| Num(r.compress_seconds)),
        ("decompress_seconds", None, |r| Num(r.decompress_seconds)),
        ("trace", None, trace),
    ],
    table_order: Some(&[
        "app",
        "compressor",
        "rel_error_bound",
        "compression_ratio_f32",
        "compression_ratio",
        "psnr_db",
        "ssim",
        "rssim",
        "bits_per_value",
    ]),
};

/// Figs. 12–13: rate-distortion points.
pub const RATE_DISTORTION: View<CompressionRun> = View {
    columns: &[
        ("compressor", Some("Compressor"), |r| text(r.compressor)),
        ("rel_error_bound", Some("Err bound"), |r| {
            Bound(r.rel_error_bound)
        }),
        ("bits_per_value", Some("bits/val"), |r| {
            Fixed(r.bits_per_value, 3)
        }),
        ("psnr_db", Some("PSNR (dB)"), |r| Fixed(r.psnr_db, 2)),
        ("rssim", Some("R-SSIM"), |r| Sig(r.rssim, 3)),
    ],
    table_order: None,
};

/// Fig. 1: crack/gap structure of the original data.
pub const CRACKS: View<CrackRun> = View {
    columns: &[
        ("app", Some("App"), |r| text(&r.scenario)),
        ("method", Some("Method"), |r| text(r.method)),
        ("coarse_triangles", Some("Coarse tris"), |r| {
            Count(r.coarse_triangles)
        }),
        ("fine_triangles", Some("Fine tris"), |r| {
            Count(r.fine_triangles)
        }),
        ("rim_edges", Some("Rim edges"), |r| Count(r.gap.n_rim_edges)),
        ("rim_length", None, |r| Num(r.gap.rim_length)),
        ("mean_gap", Some("Mean gap"), |r| Sig(r.gap.mean_gap, 3)),
        ("max_gap", Some("Max gap"), |r| Sig(r.gap.max_gap, 3)),
    ],
    table_order: None,
};

/// Figs. 9–11: visualization quality of decompressed data.
pub const VIZ_QUALITY: View<VizQualityRun> = View {
    columns: &[
        ("app", Some("App"), |r| text(&r.scenario)),
        ("compressor", Some("Compressor"), |r| text(r.compressor)),
        ("rel_error_bound", Some("Err bound"), |r| {
            Bound(r.rel_error_bound)
        }),
        ("method", Some("Method"), |r| text(r.method)),
        ("surface_error_cells", Some("Surf err (cells)"), |r| {
            Sig(r.surface_error_cells, 3)
        }),
        ("surface_error_max_cells", Some("Max err (cells)"), |r| {
            Sig(r.surface_error_max_cells, 3)
        }),
        ("roughness_increase", Some("Roughness Δ"), |r| {
            Sig(r.roughness_increase, 3)
        }),
        ("image_rssim", Some("Image R-SSIM"), |r| {
            Sig(r.image_rssim, 3)
        }),
        ("triangles", Some("Triangles"), |r| Count(r.triangles)),
    ],
    table_order: None,
};

/// A compression run's entry in the `SUMMARY` line's `runs`.
pub const SUMMARY_RUNS: View<CompressionRun> = View {
    columns: &[
        ("scenario", None, |r| text(&r.scenario)),
        ("recipe", None, |r| text(&r.recipe)),
        ("compressor", None, |r| text(r.compressor)),
        ("rel_eb", None, |r| Num(r.rel_error_bound)),
        ("compression_ratio", None, |r| Num(r.compression_ratio)),
        ("psnr_db", None, |r| Num(r.psnr_db)),
        ("ssim", None, |r| Num(r.ssim)),
        ("compress_seconds", None, |r| Num(r.compress_seconds)),
        ("decompress_seconds", None, |r| Num(r.decompress_seconds)),
        ("trace", None, trace),
    ],
    table_order: None,
};

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

/// Every view's table and `results.json` bytes, and the `SUMMARY` entry's,
/// for hand-made rows. Between them the rows hold a 0, a NaN, a value below
/// 1e-3 and one above 1e6 in `sig`-formatted columns.
#[cfg(test)]
mod pins {
    use super::*;
    use amrviz_viz::CrackMetrics;

    fn runs() -> Vec<CompressionRun> {
        let run =
            |scenario: &str, recipe: &str, compressor, rel_error_bound, trace_id| CompressionRun {
                scenario: scenario.into(),
                recipe: recipe.into(),
                compressor,
                rel_error_bound,
                abs_error_bound: 2.5e-4,
                compression_ratio: 12.345,
                compression_ratio_f32: 6.1725,
                bits_per_value: 5.18,
                psnr_db: 71.256,
                ssim: 0.99999876,
                rssim: 1.24e-6,
                max_abs_error: 2.4e-4,
                compress_seconds: 0.5,
                decompress_seconds: 0.25,
                trace_id,
            };
        let mut rows = vec![
            run("WarpX", "(scenario warpx)", "SZ-L/R", 1e-3, 0xabc),
            run("Nyx", "(scenario nyx)", "SZ-Itp", 1e-2, 0),
            run("Nyx", "", "SZ-L/R", 3e-2, u64::MAX),
        ];
        let r = &mut rows[1];
        (
            r.abs_error_bound,
            r.compression_ratio,
            r.compression_ratio_f32,
        ) = (3.0, 2.5e6, 1.25e6);
        (r.bits_per_value, r.psnr_db, r.ssim, r.rssim) = (0.0, f64::NAN, 1.0, 0.0);
        (r.max_abs_error, r.compress_seconds, r.decompress_seconds) = (0.0, 0.0, 0.0);
        let r = &mut rows[2];
        (
            r.abs_error_bound,
            r.compression_ratio,
            r.compression_ratio_f32,
        ) = (1e-9, 1.0, 0.5);
        (r.bits_per_value, r.psnr_db, r.ssim, r.rssim) = (1.5e7, 40.0, f64::NAN, f64::NAN);
        (r.max_abs_error, r.compress_seconds, r.decompress_seconds) = (f64::NAN, 1e-3, 2e-3);
        rows
    }

    fn table1_rows() -> Vec<Table1Row> {
        vec![
            Table1Row {
                scenario: "WarpX".into(),
                levels: 2,
                grid_sizes: vec![[8, 8, 64], [16, 16, 128]],
                densities: vec![0.914, 0.086],
                total_cells: 36864,
            },
            Table1Row {
                scenario: "Nyx".into(),
                levels: 3,
                grid_sizes: vec![[16; 3], [32; 3], [2048; 3]],
                densities: vec![0.593, 0.407, 0.0],
                total_cells: 8_589_934_592,
            },
        ]
    }

    fn crack_rows() -> Vec<CrackRun> {
        let crack = |scenario: &str, method, tris: [usize; 2], gap: [f64; 3]| CrackRun {
            scenario: scenario.into(),
            method,
            coarse_triangles: tris[0],
            fine_triangles: tris[1],
            gap: CrackMetrics {
                n_rim_edges: tris[1] / 10,
                rim_length: gap[0],
                mean_gap: gap[1],
                max_gap: gap[2],
            },
        };
        vec![
            crack("WarpX", "re-sampling", [120, 40], [2.5, 0.011, 0.05]),
            crack("WarpX", "dual-cell", [0, 0], [0.0, f64::NAN, 0.0]),
            crack(
                "Nyx",
                "dual-cell+redundant",
                [1234567, 7654321],
                [1e7, 7e-4, 2.5e6],
            ),
        ]
    }

    fn viz_rows() -> Vec<VizQualityRun> {
        let viz = |scenario: &str, compressor, rel_error_bound, method, v: [f64; 4], triangles| {
            VizQualityRun {
                scenario: scenario.into(),
                compressor,
                rel_error_bound,
                method,
                surface_error_cells: v[0],
                surface_error_max_cells: v[1],
                roughness_increase: v[2],
                image_rssim: v[3],
                triangles,
            }
        };
        vec![
            viz(
                "WarpX",
                "SZ-L/R",
                1e-4,
                "re-sampling",
                [0.0123, 0.5, -0.0021, 1.5e-5],
                1000,
            ),
            viz(
                "Nyx",
                "SZ-Itp",
                1e-2,
                "dual-cell+redundant",
                [f64::NAN, 0.0, 0.0, 0.0],
                0,
            ),
            viz(
                "Nyx",
                "SZ-L/R",
                3e-2,
                "re-sampling",
                [3.2e6, 1.1e7, 12.5, 0.25],
                42,
            ),
        ]
    }

    #[test]
    fn table1_view_bytes() {
        let rows = table1_rows();
        assert_eq!(TABLE1.table(&rows),
        "\
            +-------+-------------+------------------------------------+-----------------------+------------+\n\
            | Runs  | #AMR Levels | Grid size of each level            | Density of each level | Cells      |\n\
            +-------+-------------+------------------------------------+-----------------------+------------+\n\
            | WarpX | 2           | 8x8x64, 16x16x128                  | 91.4%, 8.6%           | 36864      |\n\
            | Nyx   | 3           | 16x16x16, 32x32x32, 2048x2048x2048 | 59.3%, 40.7%, 0.0%    | 8589934592 |\n\
            +-------+-------------+------------------------------------+-----------------------+------------+\n",
    );
        assert_eq!(TABLE1.json(&rows).to_string_compact(),
        "\
            [{\"app\":\"WarpX\",\"levels\":2,\"grid_sizes\":[[8,8,64],[16,16,128]],\"densities\":[0.914,0.086],\"total_cells\":36864},\
            {\"app\":\"Nyx\",\"levels\":3,\"grid_sizes\":[[16,16,16],[32,32,32],[2048,2048,2048]],\"densities\":[0.593,0.407,0],\"total_cells\":8589934592}]",
    );
    }

    #[test]
    fn table2_view_bytes() {
        let rows = runs();
        assert_eq!(TABLE2.table(&rows),
        "\
            +-------+------------+-----------+-----------+-----------+-------+-----------+---------+----------+\n\
            | App   | Compressor | Err bound | CR (f32)  | CR (f64)  | PSNR  | SSIM      | R-SSIM  | bits/val |\n\
            +-------+------------+-----------+-----------+-----------+-------+-----------+---------+----------+\n\
            | WarpX | SZ-L/R     | 1e-3      | 6.2       | 12.3      | 71.26 | 0.9999988 | 1.24e-6 | 5.18     |\n\
            | Nyx   | SZ-Itp     | 1e-2      | 1250000.0 | 2500000.0 | NaN   | 1.0000000 | 0       | 0        |\n\
            | Nyx   | SZ-L/R     | 3e-2      | 0.5       | 1.0       | 40.00 | NaN       | NaN     | 1.50e7   |\n\
            +-------+------------+-----------+-----------+-----------+-------+-----------+---------+----------+\n",
    );
        assert_eq!(TABLE2.json(&rows).to_string_compact(),
        "\
            [{\"app\":\"WarpX\",\"recipe\":\"(scenario warpx)\",\"compressor\":\"SZ-L/R\",\"rel_error_bound\":0.001,\"abs_error_bound\":0.00025,\"compression_ratio\":12.345,\"compression_ratio_f32\":6.1725,\"bits_per_value\":5.18,\"psnr_db\":71.256,\"ssim\":0.99999876,\"rssim\":1.24e-6,\"max_abs_error\":0.00024,\"compress_seconds\":0.5,\"decompress_seconds\":0.25,\"trace\":\"0000000000000abc\"},\
            {\"app\":\"Nyx\",\"recipe\":\"(scenario nyx)\",\"compressor\":\"SZ-Itp\",\"rel_error_bound\":0.01,\"abs_error_bound\":3,\"compression_ratio\":2500000,\"compression_ratio_f32\":1250000,\"bits_per_value\":0,\"psnr_db\":null,\"ssim\":1,\"rssim\":0,\"max_abs_error\":0,\"compress_seconds\":0,\"decompress_seconds\":0},\
            {\"app\":\"Nyx\",\"recipe\":\"\",\"compressor\":\"SZ-L/R\",\"rel_error_bound\":0.03,\"abs_error_bound\":1e-9,\"compression_ratio\":1,\"compression_ratio_f32\":0.5,\"bits_per_value\":15000000,\"psnr_db\":40,\"ssim\":null,\"rssim\":null,\"max_abs_error\":null,\"compress_seconds\":0.001,\"decompress_seconds\":0.002,\"trace\":\"ffffffffffffffff\"}]",
    );
    }

    #[test]
    fn rate_distortion_view_bytes() {
        let rows = runs();
        assert_eq!(
            RATE_DISTORTION.table(&rows),
            "\
            +------------+-----------+--------------+-----------+---------+\n\
            | Compressor | Err bound | bits/val     | PSNR (dB) | R-SSIM  |\n\
            +------------+-----------+--------------+-----------+---------+\n\
            | SZ-L/R     | 1e-3      | 5.180        | 71.26     | 1.24e-6 |\n\
            | SZ-Itp     | 1e-2      | 0.000        | NaN       | 0       |\n\
            | SZ-L/R     | 3e-2      | 15000000.000 | 40.00     | NaN     |\n\
            +------------+-----------+--------------+-----------+---------+\n",
        );
        assert_eq!(RATE_DISTORTION.json(&rows).to_string_compact(),
        "\
            [{\"compressor\":\"SZ-L/R\",\"rel_error_bound\":0.001,\"bits_per_value\":5.18,\"psnr_db\":71.256,\"rssim\":1.24e-6},\
            {\"compressor\":\"SZ-Itp\",\"rel_error_bound\":0.01,\"bits_per_value\":0,\"psnr_db\":null,\"rssim\":0},\
            {\"compressor\":\"SZ-L/R\",\"rel_error_bound\":0.03,\"bits_per_value\":15000000,\"psnr_db\":40,\"rssim\":null}]",
    );
    }

    #[test]
    fn crack_view_bytes() {
        let rows = crack_rows();
        assert_eq!(CRACKS.table(&rows),
        "\
            +-------+---------------------+-------------+-----------+-----------+----------+---------+\n\
            | App   | Method              | Coarse tris | Fine tris | Rim edges | Mean gap | Max gap |\n\
            +-------+---------------------+-------------+-----------+-----------+----------+---------+\n\
            | WarpX | re-sampling         | 120         | 40        | 4         | 0.0110   | 0.0500  |\n\
            | WarpX | dual-cell           | 0           | 0         | 0         | NaN      | 0       |\n\
            | Nyx   | dual-cell+redundant | 1234567     | 7654321   | 765432    | 7.00e-4  | 2.50e6  |\n\
            +-------+---------------------+-------------+-----------+-----------+----------+---------+\n",
    );
        assert_eq!(CRACKS.json(&rows).to_string_compact(),
        "\
            [{\"app\":\"WarpX\",\"method\":\"re-sampling\",\"coarse_triangles\":120,\"fine_triangles\":40,\"rim_edges\":4,\"rim_length\":2.5,\"mean_gap\":0.011,\"max_gap\":0.05},\
            {\"app\":\"WarpX\",\"method\":\"dual-cell\",\"coarse_triangles\":0,\"fine_triangles\":0,\"rim_edges\":0,\"rim_length\":0,\"mean_gap\":null,\"max_gap\":0},\
            {\"app\":\"Nyx\",\"method\":\"dual-cell+redundant\",\"coarse_triangles\":1234567,\"fine_triangles\":7654321,\"rim_edges\":765432,\"rim_length\":10000000,\"mean_gap\":0.0007,\"max_gap\":2500000}]",
    );
    }

    #[test]
    fn viz_quality_view_bytes() {
        let rows = viz_rows();
        assert_eq!(VIZ_QUALITY.table(&rows),
        "\
            +-------+------------+-----------+---------------------+------------------+-----------------+--------------+--------------+-----------+\n\
            | App   | Compressor | Err bound | Method              | Surf err (cells) | Max err (cells) | Roughness Δ  | Image R-SSIM | Triangles |\n\
            +-------+------------+-----------+---------------------+------------------+-----------------+--------------+--------------+-----------+\n\
            | WarpX | SZ-L/R     | 1e-4      | re-sampling         | 0.0123           | 0.500           | -0.00210     | 1.50e-5      | 1000      |\n\
            | Nyx   | SZ-Itp     | 1e-2      | dual-cell+redundant | NaN              | 0               | 0            | 0            | 0         |\n\
            | Nyx   | SZ-L/R     | 3e-2      | re-sampling         | 3.20e6           | 1.10e7          | 12.5         | 0.250        | 42        |\n\
            +-------+------------+-----------+---------------------+------------------+-----------------+--------------+--------------+-----------+\n",
    );
        assert_eq!(VIZ_QUALITY.json(&rows).to_string_compact(),
        "\
            [{\"app\":\"WarpX\",\"compressor\":\"SZ-L/R\",\"rel_error_bound\":0.0001,\"method\":\"re-sampling\",\"surface_error_cells\":0.0123,\"surface_error_max_cells\":0.5,\"roughness_increase\":-0.0021,\"image_rssim\":1.5e-5,\"triangles\":1000},\
            {\"app\":\"Nyx\",\"compressor\":\"SZ-Itp\",\"rel_error_bound\":0.01,\"method\":\"dual-cell+redundant\",\"surface_error_cells\":null,\"surface_error_max_cells\":0,\"roughness_increase\":0,\"image_rssim\":0,\"triangles\":0},\
            {\"app\":\"Nyx\",\"compressor\":\"SZ-L/R\",\"rel_error_bound\":0.03,\"method\":\"re-sampling\",\"surface_error_cells\":3200000,\"surface_error_max_cells\":11000000,\"roughness_increase\":12.5,\"image_rssim\":0.25,\"triangles\":42}]",
    );
    }

    #[test]
    fn summary_runs_entry_bytes_with_and_without_trace() {
        let rows = runs();
        assert_eq!(SUMMARY_RUNS.json(&rows[..2]).to_string_compact(),
        "\
            [{\"scenario\":\"WarpX\",\"recipe\":\"(scenario warpx)\",\"compressor\":\"SZ-L/R\",\"rel_eb\":0.001,\"compression_ratio\":12.345,\"psnr_db\":71.256,\"ssim\":0.99999876,\"compress_seconds\":0.5,\"decompress_seconds\":0.25,\"trace\":\"0000000000000abc\"},\
            {\"scenario\":\"Nyx\",\"recipe\":\"(scenario nyx)\",\"compressor\":\"SZ-Itp\",\"rel_eb\":0.01,\"compression_ratio\":2500000,\"psnr_db\":null,\"ssim\":1,\"compress_seconds\":0,\"decompress_seconds\":0}]",
    );
    }
}
