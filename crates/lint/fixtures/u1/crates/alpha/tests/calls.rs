#[test]
fn calls() {
    alpha::used_by_tests_dir();
}
