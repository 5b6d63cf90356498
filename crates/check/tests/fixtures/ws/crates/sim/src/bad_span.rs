// Seeded-violation fixture: D9 span contract. The first span name is
// off-contract, the second spells a contract value as a literal, the
// third is the compliant form (and keeps phase::ROUND non-dangling).
pub fn run_round() {
    let _rogue = trace::quiet_span!("sim.rogue");
    let _literal = trace::Span::quiet("sim.round");
    let _ok = trace::quiet_span!(crate::phase::ROUND);
}
