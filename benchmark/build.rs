//! Records the toolchain and the source commit for the host fingerprint.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        first_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // A source tree that is not a git checkout has no commit to name.
    let commit = first_line(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
