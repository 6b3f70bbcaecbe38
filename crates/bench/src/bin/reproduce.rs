//! Regenerates every figure of the paper's evaluation as a text table.
//!
//! ```text
//! cargo run -p bench --release --bin reproduce            # all figures
//! cargo run -p bench --release --bin reproduce -- fig5a   # one figure
//! cargo run -p bench --release --bin reproduce -- ablations
//! ```
//!
//! The output is the same series the paper plots (system, input size,
//! runtime); `tests/golden/reproduce.txt` holds a captured copy, which the
//! bench crate's `reproduce_golden` test pins.

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut status = 0;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&str> = if args.is_empty() {
        bench::EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    for name in selected {
        match bench::render_experiment(name) {
            Some(table) => println!("{table}"),
            None => {
                // Keep running the remaining requested figures; report the
                // failure via the exit code at the end.
                eprintln!("unknown experiment `{name}` (expected fig1a..fig7b, ablations)");
                status = 2;
            }
        }
    }
    status
}
