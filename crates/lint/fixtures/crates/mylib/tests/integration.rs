//! Fixture: integration tests are exempt from R12.

#[test]
fn tests_may_update_unregistered_metrics() {
    rdi_obs::counter("serve.unregistered_in_integration_test").inc();
}
