//! A simple on-disk plotfile format for AMR hierarchies.
//!
//! Layout mirrors the spirit of AMReX plotfiles / HDF5 groups (paper §2.2,
//! Fig. 3): one human-readable header describing geometry, refinement
//! ratios, box arrays and fields, plus one raw binary file per
//! (field, level) holding all fab data concatenated in box order,
//! little-endian `f64`.
//!
//! ```text
//! <dir>/
//!   Header.json
//!   <field>_L<level>.bin
//! ```

use std::fs;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use amrviz_json::Json;

use crate::box_array::BoxArray;
use crate::boxes::Box3;
use crate::error::AmrError;
use crate::geometry::Geometry;
use crate::hierarchy::{check_structure, AmrHierarchy};
use crate::multifab::MultiFab;

/// Serialized header describing a hierarchy.
#[derive(Debug)]
struct Header {
    /// Format magic/version — bump on incompatible changes.
    version: u32,
    geometry: Geometry,
    ref_ratios: Vec<i64>,
    box_arrays: Vec<BoxArray>,
    fields: Vec<String>,
    time: f64,
    step: u64,
}

const VERSION: u32 = 1;

fn ivec_json(iv: crate::ivec::IntVect) -> Json {
    Json::Arr(iv.0.iter().map(|&c| Json::Num(c as f64)).collect())
}

fn ivec_from(v: &Json) -> Option<crate::ivec::IntVect> {
    let a = v.as_arr()?;
    if a.len() != 3 {
        return None;
    }
    Some(crate::ivec::IntVect([
        a[0].as_i64()?,
        a[1].as_i64()?,
        a[2].as_i64()?,
    ]))
}

fn box_json(bx: Box3) -> Json {
    let mut o = Json::obj();
    o.set("lo", ivec_json(bx.lo()))
        .set("hi", ivec_json(bx.hi()));
    o
}

fn box_from(v: &Json) -> Option<Box3> {
    let lo = ivec_from(v.get("lo")?)?;
    let hi = ivec_from(v.get("hi")?)?;
    if !lo.all_le(hi) {
        return None;
    }
    Some(Box3::new(lo, hi))
}

fn f3_json(v: [f64; 3]) -> Json {
    Json::Arr(v.iter().map(|&c| Json::Num(c)).collect())
}

fn f3_from(v: &Json) -> Option<[f64; 3]> {
    let a = v.as_arr()?;
    if a.len() != 3 {
        return None;
    }
    Some([a[0].as_f64()?, a[1].as_f64()?, a[2].as_f64()?])
}

impl Header {
    fn to_json(&self) -> Json {
        let mut geom = Json::obj();
        geom.set("domain", box_json(self.geometry.domain))
            .set("prob_lo", f3_json(self.geometry.prob_lo))
            .set("prob_hi", f3_json(self.geometry.prob_hi));
        let mut o = Json::obj();
        o.set("version", self.version)
            .set("geometry", geom)
            .set(
                "ref_ratios",
                Json::Arr(
                    self.ref_ratios
                        .iter()
                        .map(|&r| Json::Num(r as f64))
                        .collect(),
                ),
            )
            .set(
                "box_arrays",
                Json::Arr(
                    self.box_arrays
                        .iter()
                        .map(|ba| {
                            let mut o = Json::obj();
                            o.set(
                                "boxes",
                                Json::Arr(ba.boxes().iter().map(|&b| box_json(b)).collect()),
                            );
                            o
                        })
                        .collect(),
                ),
            )
            .set(
                "fields",
                Json::Arr(self.fields.iter().map(|f| Json::Str(f.clone())).collect()),
            )
            .set("time", self.time)
            .set("step", self.step);
        o
    }

    fn from_json(v: &Json) -> Option<Header> {
        let g = v.get("geometry")?;
        // A literal, not `Geometry::new`: the extents are outside input,
        // which `check_structure` refuses with an error instead of a panic.
        let geometry = Geometry {
            domain: box_from(g.get("domain")?)?,
            prob_lo: f3_from(g.get("prob_lo")?)?,
            prob_hi: f3_from(g.get("prob_hi")?)?,
        };
        Some(Header {
            version: v.get("version")?.as_u64()? as u32,
            geometry,
            ref_ratios: v
                .get("ref_ratios")?
                .as_arr()?
                .iter()
                .map(Json::as_i64)
                .collect::<Option<_>>()?,
            box_arrays: v
                .get("box_arrays")?
                .as_arr()?
                .iter()
                .map(|ba| {
                    Some(BoxArray::new(
                        ba.get("boxes")?
                            .as_arr()?
                            .iter()
                            .map(box_from)
                            .collect::<Option<_>>()?,
                    ))
                })
                .collect::<Option<_>>()?,
            fields: v
                .get("fields")?
                .as_arr()?
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            time: v.get("time")?.as_f64()?,
            step: v.get("step")?.as_u64()?,
        })
    }
}

/// Writes a hierarchy (all fields) to `dir`, creating it if needed.
pub fn write_plotfile(dir: &Path, hier: &AmrHierarchy) -> Result<(), AmrError> {
    fs::create_dir_all(dir)?;
    let header = Header {
        version: VERSION,
        geometry: *hier.geometry(),
        ref_ratios: hier.ref_ratios().to_vec(),
        box_arrays: hier.box_arrays().to_vec(),
        fields: hier.field_names().iter().map(|s| s.to_string()).collect(),
        time: hier.time,
        step: hier.step,
    };
    fs::write(dir.join("Header.json"), header.to_json().to_string_pretty())?;

    for field in hier.fields() {
        for (lev, mf) in field.levels.iter().enumerate() {
            let path = dir.join(format!("{}_L{}.bin", field.name, lev));
            let mut w = BufWriter::new(fs::File::create(path)?);
            for fab in mf.fabs() {
                for &v in fab.data() {
                    w.write_all(&v.to_le_bytes())?;
                }
            }
            w.flush()?;
        }
    }
    Ok(())
}

/// Reads a hierarchy (all fields) from `dir`, with the default
/// (permissive) [`amrviz_codec::DecodeBudget`].
pub fn read_plotfile(dir: &Path) -> Result<AmrHierarchy, AmrError> {
    read_plotfile_budgeted(dir, &amrviz_codec::DecodeBudget::default())
}

/// Reads a hierarchy from `dir`, validating the header's structure
/// ([`check_structure`]) and every size it declares — box dimensions,
/// per-level cell counts — against `budget` and against the actual on-disk
/// file sizes *before* any data buffer is allocated. A corrupted header
/// cannot make this function panic or reserve absurd memory.
pub fn read_plotfile_budgeted(
    dir: &Path,
    budget: &amrviz_codec::DecodeBudget,
) -> Result<AmrHierarchy, AmrError> {
    let header_text = fs::read_to_string(dir.join("Header.json"))?;
    let header_value =
        Json::parse(&header_text).map_err(|e| AmrError::Corrupt(format!("header parse: {e}")))?;
    let header = Header::from_json(&header_value)
        .ok_or_else(|| AmrError::Corrupt("header: missing or mistyped field".into()))?;
    if header.version != VERSION {
        return Err(AmrError::Corrupt(format!(
            "unsupported plotfile version {}",
            header.version
        )));
    }
    // Validate every declared box against the budget before the hierarchy
    // (covered masks, etc.) computes anything from them.
    for ba in &header.box_arrays {
        for bx in ba.boxes() {
            let [sx, sy, sz] = bx.size();
            for d in [sx, sy, sz] {
                budget
                    .check_dim(d)
                    .map_err(|e| AmrError::Corrupt(format!("header box: {e}")))?;
            }
            sx.checked_mul(sy)
                .and_then(|v| v.checked_mul(sz))
                .ok_or_else(|| AmrError::Corrupt("header box cell count overflow".into()))?;
        }
    }
    check_structure(&header.geometry, &header.ref_ratios, budget)
        .map_err(|e| AmrError::Corrupt(format!("header: {e}")))?;
    let mut hier = AmrHierarchy::new(header.geometry, header.ref_ratios, header.box_arrays)?;
    hier.time = header.time;
    hier.step = header.step;

    for name in &header.fields {
        let mut levels = Vec::with_capacity(hier.num_levels());
        for lev in 0..hier.num_levels() {
            let ba = hier.box_array(lev).clone();
            let path = dir.join(format!("{name}_L{lev}.bin"));
            let expected = ba
                .boxes()
                .iter()
                .try_fold(0usize, |acc, bx| acc.checked_add(bx.num_cells()))
                .ok_or_else(|| AmrError::Corrupt("level cell count overflow".into()))?;
            budget
                .check_values(expected)
                .map_err(|e| AmrError::Corrupt(format!("level {lev}: {e}")))?;
            let nbytes = expected
                .checked_mul(8)
                .ok_or_else(|| AmrError::Corrupt("level byte count overflow".into()))?;
            // Compare the declared size against the file on disk before
            // reserving a buffer for it.
            let file_len = fs::metadata(&path)?.len();
            if file_len != nbytes as u64 {
                return Err(AmrError::Corrupt(format!(
                    "{}: expected {} bytes, found {}",
                    path.display(),
                    nbytes,
                    file_len
                )));
            }
            let mut r = BufReader::new(fs::File::open(&path)?);
            let mut bytes = Vec::with_capacity(nbytes);
            r.read_to_end(&mut bytes)?;
            if bytes.len() != nbytes {
                return Err(AmrError::Corrupt(format!(
                    "{}: expected {} bytes, read {}",
                    path.display(),
                    nbytes,
                    bytes.len()
                )));
            }
            let flat: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect();
            levels.push(MultiFab::from_flat(&ba, &flat));
        }
        hier.add_field(name, levels)?;
    }
    Ok(hier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::Box3;
    use crate::ivec::IntVect;

    fn sample_hierarchy() -> AmrHierarchy {
        let geom = Geometry::new(Box3::from_dims(8, 8, 8), [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]);
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::new(vec![
                    Box3::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 7)),
                    Box3::new(IntVect::new(8, 8, 8), IntVect::new(15, 15, 15)),
                ]),
            ],
        )
        .unwrap();
        h.time = 1.25;
        h.step = 42;
        h.add_field_from_fn("density", |lev, iv| {
            lev as f64 * 1000.0 + iv[0] as f64 + 0.5 * iv[1] as f64 - iv[2] as f64
        })
        .unwrap();
        h.add_field_from_fn("temp", |_, iv| (iv.sum() as f64).exp() % 7.0)
            .unwrap();
        h
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dir = std::env::temp_dir().join(format!("amrviz_pf_{}", std::process::id()));
        let h = sample_hierarchy();
        write_plotfile(&dir, &h).unwrap();
        let back = read_plotfile(&dir).unwrap();
        assert_eq!(back.num_levels(), h.num_levels());
        assert_eq!(back.ref_ratios(), h.ref_ratios());
        assert_eq!(back.geometry(), h.geometry());
        assert_eq!(back.time, 1.25);
        assert_eq!(back.step, 42);
        assert_eq!(back.field_names(), h.field_names());
        for name in ["density", "temp"] {
            for lev in 0..h.num_levels() {
                let a = h.field_level(name, lev).unwrap();
                let b = back.field_level(name, lev).unwrap();
                assert_eq!(a, b, "{name} level {lev} differs");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_data_detected() {
        let dir = std::env::temp_dir().join(format!("amrviz_pf_trunc_{}", std::process::id()));
        let h = sample_hierarchy();
        write_plotfile(&dir, &h).unwrap();
        // Truncate one data file.
        let victim = dir.join("density_L0.bin");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 8]).unwrap();
        match read_plotfile(&dir) {
            Err(AmrError::Corrupt(msg)) => assert!(msg.contains("expected")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_io_error() {
        let res = read_plotfile(Path::new("/nonexistent/amrviz_nope"));
        assert!(matches!(res, Err(AmrError::Io(_))));
    }

    #[test]
    fn absurd_header_box_rejected_before_allocation() {
        let dir = std::env::temp_dir().join(format!("amrviz_pf_huge_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // A header declaring a ~2^40-cell-per-axis box. The reader must
        // reject it from the header alone — no data file is even opened
        // (none exists), and nothing is allocated for it.
        let header = r#"{
            "version": 1,
            "geometry": {
                "domain": {"lo": [0, 0, 0], "hi": [1099511627775, 7, 7]},
                "prob_lo": [0.0, 0.0, 0.0],
                "prob_hi": [1.0, 1.0, 1.0]
            },
            "ref_ratios": [],
            "box_arrays": [{"boxes": [{"lo": [0, 0, 0], "hi": [1099511627775, 7, 7]}]}],
            "fields": ["density"],
            "time": 0.0,
            "step": 0
        }"#;
        fs::write(dir.join("Header.json"), header).unwrap();
        match read_plotfile(&dir) {
            Err(AmrError::Corrupt(msg)) => {
                assert!(msg.contains("header box"), "unexpected message: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Structures no reader may build, each refused from the header alone
    /// with a typed error: an inverted extent (was a `Geometry::new`
    /// panic), a ratio of 2^40 (a mask panic), ratios of 1000 over empty
    /// levels (a 4 TB allocation) and 20 levels of ratio 16, inside every
    /// per-value limit but with a level domain past the budget.
    #[test]
    fn implausible_structures_are_refused_from_the_header() {
        let dir = std::env::temp_dir().join(format!("amrviz_pf_shape_{}", std::process::id()));
        let h = AmrHierarchy::single_level(Geometry::unit(Box3::from_dims(8, 8, 8)));
        write_plotfile(&dir, &h).unwrap();
        let path = dir.join("Header.json");
        let base = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        for (ratios, prob_hi, expect) in [
            (vec![], [1.0, -1.0, 1.0], "physical extent -1 on axis 1"),
            (
                vec![1i64 << 40],
                [1.0; 3],
                "refinement ratio 1099511627776 outside 2..=16",
            ),
            (
                vec![1000, 1000],
                [1.0; 3],
                "refinement ratio 1000 outside 2..=16",
            ),
            (
                vec![16; 19],
                [1.0; 3],
                "level 2 index domain exceeds 1073741824 cells",
            ),
        ] {
            let mut header = base.clone();
            let mut geometry = base.get("geometry").unwrap().clone();
            geometry.set("prob_hi", prob_hi.to_vec());
            let mut levels = base.get("box_arrays").unwrap().as_arr().unwrap().to_vec();
            let mut empty = Json::obj();
            empty.set("boxes", Json::Arr(Vec::new()));
            levels.resize(ratios.len() + 1, empty);
            header
                .set("geometry", geometry)
                .set("ref_ratios", ratios.clone())
                .set("box_arrays", Json::Arr(levels));
            fs::write(&path, header.to_string_pretty()).unwrap();
            match read_plotfile(&dir) {
                Err(AmrError::Corrupt(msg)) => assert!(msg.ends_with(expect), "{msg}"),
                other => panic!("{ratios:?} {prob_hi:?}: expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_caps_level_cell_count() {
        let dir = std::env::temp_dir().join(format!("amrviz_pf_budget_{}", std::process::id()));
        let h = sample_hierarchy();
        write_plotfile(&dir, &h).unwrap();
        let tight = amrviz_codec::DecodeBudget {
            max_values: 100, // level 0 alone has 512 cells
            ..amrviz_codec::DecodeBudget::default()
        };
        match read_plotfile_budgeted(&dir, &tight) {
            Err(AmrError::Corrupt(msg)) => assert!(msg.contains("level")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The same plotfile reads fine under the default budget.
        assert!(read_plotfile(&dir).is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
