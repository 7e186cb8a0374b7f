//! Rate and latency accounting: reproduce the Fig. 17–19 sweep in one run
//! and print the full table for all four schemes.
//!
//! Run with `cargo run --example rate_and_latency --release` (add `--quick`
//! for a shorter sweep).

use netscatter_sim::experiments::find;
use netscatter_sim::{Scale, Scenario};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let scenario = Scenario {
        scale,
        ..Scenario::default()
    };
    for id in ["fig17", "fig18", "fig19"] {
        let exp = find(id).expect("registered experiment");
        println!("{}", exp.render_text(&exp.run(&scenario)));
    }
}
