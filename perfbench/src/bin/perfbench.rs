//! The benchmark binary; see the `perfbench` library for usage.

fn main() {
    std::process::exit(perfbench::main_entry());
}
