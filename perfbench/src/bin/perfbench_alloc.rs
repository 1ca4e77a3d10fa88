//! The benchmark built with the engine's counting allocator, which the
//! traced run uses for `engine.allocs_per_record`.

fn main() {
    std::process::exit(perfbench::main_entry());
}
