//! Experiment E1: regenerate Figure 1 of the paper as a
//! machine-checked table.
//!
//! Every edge names a family of pinned records (`sl2::records`): a
//! positive edge (Theorems 1–10, Corollaries 7–8) is verified when the
//! strong-linearizability checker certifies all of them; the
//! Theorem 17 negative is witnessed by refuting the AGM stack, with
//! the compare&swap stack/queue passing the same scenario as contrast.
//! Exits 1 if any edge disagrees with the paper.
//!
//! ```sh
//! cargo run --release --example figure1
//! ```

use sl2::figure1::{evaluate, render};

fn main() {
    println!("Regenerating Figure 1 from the pinned records...\n");
    let rows = evaluate();
    println!("{}", render(&rows));
    let agreeing = rows.iter().filter(|r| r.matches_paper()).count();
    println!("{agreeing}/{} edges agree with the paper.", rows.len());
    if agreeing != rows.len() {
        std::process::exit(1);
    }
}
