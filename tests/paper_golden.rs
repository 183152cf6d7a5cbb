//! Golden test of the paper reproduction: every experiment of the
//! `splu repro` manifest runs on the two-matrix smoke suite, and its
//! model-only rendering (host cells masked) must equal
//! `tests/golden/paper_smoke.txt` byte for byte.
//!
//! The model cells (discrete-event times on the T3D/T3E model, symbolic
//! counts, mapping statistics) are deterministic, so any change to the
//! machine model, the schedulers, the symbolic pipeline or the suite
//! generators shows up here. On a mismatch the fresh rendering is written
//! to `paper_smoke.actual.txt` in the cargo target tmp dir and the
//! differing lines are printed; a deliberate change copies that file over
//! the golden one.
//!
//! Two workers, each with its own shared-preparation context, take the
//! entries in turn: the sweeps that factor at every point dominate, and
//! two workers halve the wall time on a two-core host.

use splu_bench::repro::{Ctx, MANIFEST, SMOKE};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const GOLDEN: &str = include_str!("golden/paper_smoke.txt");

fn header(id: &str) -> String {
    format!("==> {id} <==")
}

#[test]
fn smoke_rendering_matches_the_golden_file() {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(vec![String::new(); MANIFEST.len()]);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let ctx = Ctx::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(e) = MANIFEST.get(i) else { break };
                    let text = e.run(&ctx, &SMOKE).render(false);
                    done.lock().unwrap()[i] = format!("{}\n{text}", header(e.id));
                }
            });
        }
    });
    let fresh = done.into_inner().unwrap().concat();
    if fresh == GOLDEN {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_smoke.actual.txt");
    std::fs::write(&out, &fresh).expect("write the fresh rendering");
    let (old, new): (Vec<&str>, Vec<&str>) = (GOLDEN.lines().collect(), fresh.lines().collect());
    let mut diff = String::new();
    for i in 0..old.len().max(new.len()) {
        let (o, n) = (old.get(i), new.get(i));
        if o != n {
            diff += &format!(
                "line {}:\n- {}\n+ {}\n",
                i + 1,
                o.unwrap_or(&""),
                n.unwrap_or(&"")
            );
        }
    }
    panic!(
        "model-only rendering differs from tests/golden/paper_smoke.txt \
         (fresh copy: {}):\n{diff}",
        out.display()
    );
}

#[test]
fn golden_file_covers_every_manifest_entry() {
    let sections: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with("==> ")).collect();
    let expected: Vec<String> = MANIFEST.iter().map(|e| header(e.id)).collect();
    assert_eq!(
        sections, expected,
        "a manifest entry is missing from the golden file"
    );
    for e in MANIFEST {
        let body = GOLDEN.split(&header(e.id)).nth(1).unwrap();
        let body = body.split("\n==> ").next().unwrap();
        assert!(
            body.contains(e.title.lines().next().unwrap()) && body.contains(e.shape),
            "{} renders without its title or shape note",
            e.id
        );
        assert!(body.lines().count() > 5, "{} renders no rows", e.id);
    }
}
