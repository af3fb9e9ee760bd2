//! `vqmc-cli train` rejects shapes it cannot train — zero iterations or
//! an empty batch — with an error message and a failing exit status,
//! not a panic, in one process and before `--ranks N` spawns a mesh.

use std::process::Command;

const BASE_ARGS: &[&str] = &["train", "--problem", "tim", "--n", "6", "--seed", "3"];

#[test]
fn empty_training_shapes_fail_cleanly() {
    for (extra, message) in [
        (&["--iters", "0"][..], "--iters must be at least 1"),
        (&["--batch", "0"][..], "--batch must be at least 1"),
        (&["--iters", "0", "--ranks", "2"][..], "--iters must be at least 1"),
        (&["--batch", "0", "--ranks", "2"][..], "--batch must be at least 1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_vqmc-cli"))
            .args(BASE_ARGS)
            .args(extra)
            .output()
            .expect("spawn vqmc-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: exit status\n{stderr}");
        assert!(stderr.contains(message), "{extra:?}: want {message:?} in\n{stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?} panicked:\n{stderr}");
    }
}
