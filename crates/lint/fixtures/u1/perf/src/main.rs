fn main() {
    alpha::used_by_perf();
}
