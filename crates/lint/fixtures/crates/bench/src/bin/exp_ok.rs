//! Fixture: a compliant experiment binary — emits the snapshot marker.
//! Never compiled.

fn main() {
    println!("draws = 7");
    rdi_bench::emit_metrics_snapshot();
}
