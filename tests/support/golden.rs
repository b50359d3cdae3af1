//! Golden-fixture comparison shared by the pinning suites
//! (`golden_figures.rs`, `golden_experiments.rs`, `protocol_variants.rs`).

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Compares `text` (describing `what`) against the named fixture; with
/// `UPDATE_GOLDEN=1` rewrites the fixture instead.
pub fn assert_text_matches_golden(text: &str, what: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); rerun this test with \
             UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        text,
        golden,
        "{what} drifted from its golden fixture {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and commit the fixture",
        path.display()
    );
}
