//! A reader that hangs up before the first line ends the printing, not the
//! command: `amrviz info PLT | head -1` exits 0 without a panic.

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
