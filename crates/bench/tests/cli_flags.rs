//! The command-line contract shared by every bench binary that owns its
//! argv: a usage error exits with status 2, names the flag (and a bad
//! value) on stderr, and leaves nothing behind; every flag takes
//! `--flag v` or `--flag=v`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty working directory, so a run that writes files shows it.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-cli-flags-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_in(dir: &PathBuf, exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .env_remove("NOC_BENCH_TELEMETRY")
        .env_remove("NOC_SERVE_SOCKET")
        .output()
        .expect("run binary")
}

/// Every binary, each with an unknown flag, a missing value and a bad
/// value, plus what its stderr must name. `noc_fleet` takes no typed
/// value, so its third case is a missing required flag.
fn usage_errors() -> Vec<(&'static str, Vec<&'static str>, Vec<&'static str>)> {
    let serve = env!("CARGO_BIN_EXE_noc_serve");
    let fleet = env!("CARGO_BIN_EXE_noc_fleet");
    let top = env!("CARGO_BIN_EXE_noc_top");
    let explore = env!("CARGO_BIN_EXE_explore");
    let resilience = env!("CARGO_BIN_EXE_resilience");
    let pareto = env!("CARGO_BIN_EXE_pareto_explore");
    let scale = env!("CARGO_BIN_EXE_scale_study");
    vec![
        (serve, vec!["--quick", "--bogus"], vec!["--bogus"]),
        (serve, vec!["--quick", "--workers"], vec!["--workers"]),
        (serve, vec!["--workers=2x"], vec!["--workers", "\"2x\""]),
        (
            fleet,
            vec!["--shard", "s.sock", "--bogus=1"],
            vec!["--bogus=1"],
        ),
        (fleet, vec!["--shard"], vec!["--shard"]),
        (fleet, vec!["--socket", "f.sock"], vec!["--shard"]),
        (top, vec!["s.sock", "--bogus"], vec!["--bogus"]),
        (top, vec!["s.sock", "--interval"], vec!["--interval"]),
        (
            top,
            vec!["s.sock", "--interval", "x"],
            vec!["--interval", "\"x\""],
        ),
        (explore, vec!["--bogus"], vec!["--bogus"]),
        (explore, vec!["--rate"], vec!["--rate"]),
        (explore, vec!["--rate", "abc"], vec!["--rate", "\"abc\""]),
        (explore, vec!["--workers=x"], vec!["--workers", "\"x\""]),
        (resilience, vec!["--quick", "--bogus"], vec!["--bogus"]),
        (resilience, vec!["--levels"], vec!["--levels"]),
        (
            resilience,
            vec!["--levels", "4,x"],
            vec!["--levels", "\"x\""],
        ),
        (pareto, vec!["--quick", "--bogus"], vec!["--bogus"]),
        (pareto, vec!["--quick", "--loads"], vec!["--loads"]),
        (
            pareto,
            vec!["--topologies=mesh4x4,ring"],
            vec!["--topologies", "\"ring\""],
        ),
        (scale, vec!["--quick", "--bogus"], vec!["--bogus"]),
        (scale, vec!["--mesh"], vec!["--mesh"]),
        (scale, vec!["--mesh", "x"], vec!["--mesh", "\"x\""]),
    ]
}

#[test]
fn usage_errors_exit_2_name_the_flag_and_write_nothing() {
    let dir = scratch_dir("usage");
    for (exe, args, named) in usage_errors() {
        let out = run_in(&dir, exe, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        for name in named {
            assert!(
                stderr.contains(name),
                "{exe} {args:?} must name {name}: {stderr}"
            );
        }
        assert!(out.stdout.is_empty(), "{exe} {args:?} wrote stdout");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{exe} {args:?} left files: {left:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_value_forms_are_accepted() {
    let dir = scratch_dir("forms");
    let explore = env!("CARGO_BIN_EXE_explore");
    let spaced = run_in(
        &dir,
        explore,
        &["--rate", "0.1", "--workers", "1", "--loads", "0.05"],
    );
    let joined = run_in(
        &dir,
        explore,
        &["--rate=0.1", "--workers=1", "--loads=0.05"],
    );
    assert!(spaced.status.success() && joined.status.success());
    assert_eq!(spaced.stdout, joined.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--quick` fills in only the lists the user did not give: an explicit
/// `--levels 8` survives it.
#[test]
fn pareto_quick_keeps_explicit_lists() {
    let dir = scratch_dir("pareto");
    let pareto = env!("CARGO_BIN_EXE_pareto_explore");
    let out = run_in(&dir, pareto, &["--quick", "--levels", "8", "--out", "out"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("[4 candidates: 2 topologies x 1 levels x 2 loads]"),
        "{stderr}"
    );
    let csv = std::fs::read_to_string(dir.join("out/pareto.csv")).expect("pareto.csv");
    let levels: Vec<&str> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(1).unwrap())
        .collect();
    assert_eq!(levels, ["8"; 4]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `scale_study` runs on the mesh `--mesh` names: its jobs carry that mesh,
/// not the paper's 4x4 default.
#[test]
fn scale_study_runs_on_the_requested_mesh() {
    let dir = scratch_dir("scale");
    let scale = env!("CARGO_BIN_EXE_scale_study");
    let out = run_in(&dir, scale, &["--mesh=8", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("| 64/64 cores |"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
