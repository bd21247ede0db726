//! Every `amrviz-*` edge a member declares under `[dependencies]` is one
//! its sources use. Everything in the workspace is `pub` across crates, so
//! neither rustc nor clippy notices a dependency nothing imports any more;
//! an unused edge still costs build order and misdescribes the layering
//! DESIGN.md draws.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("member directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("source is UTF-8"));
        }
    }
}

/// The `amrviz-*` package names listed under `[dependencies]`.
fn workspace_deps(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split('=').next())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("amrviz-"))
        .collect()
}

#[test]
fn every_declared_workspace_dependency_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("directory entry").path())
        .collect();
    members.extend([root.join("examples"), root.join("tests")]);
    members.sort();

    let (mut edges, mut unused) = (0, Vec::new());
    for member in &members {
        let manifest = std::fs::read_to_string(member.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("{}: {e}", member.display()));
        let mut sources = String::new();
        rust_sources(member, &mut sources);
        for dep in workspace_deps(&manifest) {
            edges += 1;
            if !sources.contains(&dep.replace('-', "_")) {
                unused.push(format!("{} -> {dep}", member.display()));
            }
        }
    }
    assert!(edges > 50, "manifests were not parsed: {edges} edges");
    assert!(unused.is_empty(), "declared but never used: {unused:#?}");
}

/// The serving library only serves: it decodes and streams hierarchies,
/// so its `[dependencies]` name no generator, recipe, evaluation or
/// fault-injection crate. Its tests may still build fixtures with sim.
#[test]
fn serve_depends_on_no_generator_recipe_evaluation_or_fault_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let manifest = std::fs::read_to_string(root.join("crates/serve/Cargo.toml")).unwrap();
    let deps = workspace_deps(&manifest);
    assert!(deps.iter().any(|d| d == "amrviz-compress"), "{deps:?}");
    let banned = ["amrviz-sim", "amrviz-recipe", "amrviz-core", "amrviz-fault"];
    let listed: Vec<_> = deps
        .iter()
        .filter(|d| banned.contains(&d.as_str()))
        .collect();
    assert!(listed.is_empty(), "serve depends on {listed:?}");
}
