//! The `amrviz` binary as a shell runs it: a reader that hangs up before
//! the first line ends the printing, not the command (`amrviz info PLT |
//! head -1` exits 0 without a panic), and a value flag given twice keeps
//! its last value and says so once on stderr.

use std::process::{Command, Stdio};

fn amrviz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_amrviz"))
}

#[test]
fn commands_survive_a_reader_that_hangs_up() {
    let root = std::env::temp_dir().join(format!("amrviz_hangup_{}", std::process::id()));
    let ds = root.join("ds").to_string_lossy().into_owned();
    let generated = amrviz()
        .args(["generate", "warpx", "--scale", "tiny", "--out", &ds])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(generated.success());
    for argv in [&["info", &ds][..], &["diff", &ds, &ds, "--field", "Ez"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let run = amrviz().args(argv).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert_eq!(run.status.code(), Some(0), "{argv:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_repeated_value_flag_warns_exactly_once() {
    let out = std::env::temp_dir().join(format!("amrviz_repeated_{}", std::process::id()));
    let run = amrviz()
        .args(["compress", "/nonexistent", "--field", "f", "--out"])
        .arg(&out)
        .args(["--rel", "1e-3", "--rel", "1e-2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    let warning = "warning: --rel given more than once; using `1e-2` (ignoring `1e-3`)";
    assert_eq!(stderr.matches(warning).count(), 1, "{stderr}");
    assert!(!run.status.success(), "the plotfile is missing: {stderr}");
}
