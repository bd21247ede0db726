//! Mesh export: Wavefront OBJ.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::mesh::TriMesh;

/// Writes a mesh as Wavefront OBJ.
pub fn write_obj(w: &mut impl Write, mesh: &TriMesh) -> io::Result<()> {
    writeln!(
        w,
        "# amrviz isosurface: {} vertices, {} triangles",
        mesh.num_vertices(),
        mesh.num_triangles()
    )?;
    for v in &mesh.vertices {
        writeln!(w, "v {} {} {}", v[0], v[1], v[2])?;
    }
    for t in &mesh.triangles {
        // OBJ indices are 1-based.
        writeln!(w, "f {} {} {}", t[0] + 1, t[1] + 1, t[2] + 1)?;
    }
    Ok(())
}

/// Writes a mesh as OBJ to a file path.
pub fn save_obj(path: &Path, mesh: &TriMesh) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_obj(&mut w, mesh)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TriMesh {
        TriMesh {
            vertices: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ],
            triangles: vec![[0, 1, 2], [0, 1, 3]],
        }
    }

    #[test]
    fn obj_text_is_one_based_and_complete() {
        let mut buf = Vec::new();
        write_obj(&mut buf, &sample()).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "# amrviz isosurface: 4 vertices, 2 triangles\n\
             v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n"
        );
    }
}
