//! Fixture: mylib also has a binary target. A bin target does not make
//! the package's library modules binary code: R10 still fires at
//! `choose.rs:7`. Never compiled.

fn main() {
    println!("{:?}", mylib::lookup_table());
}
