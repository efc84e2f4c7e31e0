//! Fixture: the entry point of a binary-only package. Never compiled.

mod layers;

fn main() {
    layers::time_choose();
}
