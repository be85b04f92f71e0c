pub use alpha::reexported_only;

fn uses() {
    alpha::used_by_other_crate();
    let _ = alpha::make();
}
