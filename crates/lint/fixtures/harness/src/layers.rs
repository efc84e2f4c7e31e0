//! Fixture: a module of a binary-only package that times a
//! selection-policy `.choose(..)` and never emits the decision. The
//! package has no lib target, so this is binary code and the R10
//! choose-site leg does not apply: no finding. Never compiled.

pub fn time_choose() -> f64 {
    let params = PolicyParams::new();
    let t0 = Instant::now();
    black_box(policy().choose(&candidates(), &params));
    t0.elapsed().as_secs_f64()
}
