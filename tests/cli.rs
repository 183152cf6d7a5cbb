//! The `splu` binary resolves a built-in suite-matrix name wherever it
//! takes a matrix, and rejects an unknown name with a message; `info`
//! reports the update-shape and supernode-width censuses; `repro` takes
//! experiment ids only and writes the committed model-only rendering.

use std::process::{Command, Output};

fn splu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_splu"))
        .args(args)
        .output()
        .expect("spawn splu")
}

fn assert_success(args: &[&str]) -> String {
    let out = splu(args);
    assert!(
        out.status.success(),
        "splu {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn info_accepts_a_suite_name() {
    let stdout = assert_success(&["info", "sherman5"]);
    assert!(stdout.contains("static factor entries"), "{stdout}");
}

#[test]
fn info_prints_the_update_shape_census() {
    let stdout = assert_success(&["info", "sherman5"]);
    let line = |key: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("no `{key}` line in {stdout}"))
            .to_string()
    };
    let products = line("update products:");
    assert!(products.contains("segment products, mean"), "{products}");
    let small = line("below the blocked-kernel boundary:");
    assert!(
        small.contains("% of products") && small.contains("% of flops"),
        "{small}"
    );
    let packed = line("packed L per factorization:");
    let elems: u64 = packed
        .split_whitespace()
        .nth(4)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{packed}"));
    assert!(elems > 0, "{packed}");
}

#[test]
fn info_prints_the_supernode_width_census() {
    // `supernode widths: max W (cap C), B blocks at the cap, S % of update flops`
    let census = |args: &[&str]| -> (usize, usize, usize, f64) {
        let stdout = assert_success(args);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("supernode widths:"))
            .unwrap_or_else(|| panic!("no width census in {stdout}"))
            .to_string();
        let nums: Vec<f64> = line
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .filter_map(|t| t.parse().ok())
            .collect();
        assert_eq!(nums.len(), 4, "{line}");
        (
            nums[0] as usize,
            nums[1] as usize,
            nums[2] as usize,
            nums[3],
        )
    };
    let default_cap = sstar::core::FactorOptions::default().block_size;
    let (max, cap, _, share) = census(&["info", "sherman5"]);
    assert_eq!(cap, default_cap);
    assert!(max <= cap && (0.0..=100.0).contains(&share));
    // a cap of 8 cuts many of sherman5's supernodes, and they carry
    // update work
    let (max, cap, at_cap, share) = census(&["info", "sherman5", "--block-size", "8"]);
    assert_eq!((max, cap), (8, 8));
    assert!(
        at_cap > 0 && share > 0.0 && share <= 100.0,
        "{at_cap} {share}"
    );
}

#[test]
fn factor_accepts_a_suite_name() {
    let stdout = assert_success(&["factor", "sherman5", "--procs", "2"]);
    assert!(stdout.contains("1×2 grid"), "{stdout}");
}

#[test]
fn unknown_matrix_name_fails_with_a_message() {
    let out = splu(&["info", "no-such-matrix"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read no-such-matrix"), "{stderr}");
}

#[test]
fn repro_takes_experiment_ids_only() {
    for (args, message) in [
        (["repro", "--all"], "experiment ids only"),
        (["repro", "table9"], "unknown experiment `table9`"),
    ] {
        let out = splu(&args);
        assert!(!out.status.success(), "splu {args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
    }
}

#[test]
fn repro_writes_the_committed_rendering() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_splu"))
        .args(["repro", "fig_examples"])
        .current_dir(&dir)
        .output()
        .expect("spawn splu");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read_to_string(dir.join("results/fig_examples.txt")).unwrap();
    let committed = include_str!("../results/fig_examples.txt");
    assert_eq!(fresh, committed);
}
