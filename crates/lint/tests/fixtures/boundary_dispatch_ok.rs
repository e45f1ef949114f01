//! Fixture: the enum unwrapped once, the structure built over the
//! concrete scheme.

fn make(smr: AnySmr) -> Box<dyn Set> {
    reclaim::on_scheme!(smr, s => Box::new(MichaelList::<u64, _>::with_smr(s)))
}
