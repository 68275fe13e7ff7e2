//! The load transformation must be semantics-preserving: for every
//! transformed program, the Original and LoadTransformed variants must
//! produce bit-identical results — natively, under full tracing, and
//! under cycle simulation (the consumer must never affect results).
//!
//! The same bar applies to *how* a trace is replayed: the suite's
//! single-pass bank replay (one packed decode and one shared register
//! plan and predictor front driving all four platform models at once)
//! must be indistinguishable from four independent sequential replays,
//! and from the conformance reference pipeline.

use bioperf_conform::RefPipeline;
use bioperf_loadchar::core::Characterizer;
use bioperf_loadchar::kernels::{registry, ProgramId, Scale, Variant};
use bioperf_loadchar::pipe::{CycleSim, PlatformBank, PlatformConfig};
use bioperf_loadchar::trace::replay::{Recorder, Recording};
use bioperf_loadchar::trace::{NullTracer, Tape};

/// Records one program variant, failing the test on overflow.
fn record(program: ProgramId, scale: Scale, seed: u64) -> Recording {
    let mut tape = Tape::new(Recorder::new());
    registry::run(&mut tape, program, Variant::Original, scale, seed);
    let (static_program, rec) = tape.finish();
    assert!(!rec.overflowed(), "{program}: trace overflowed the recorder");
    rec.into_recording(static_program)
}

#[test]
fn all_transformed_programs_agree_across_variants() {
    for program in ProgramId::TRANSFORMED {
        for seed in [1, 7, 42] {
            let mut t = NullTracer::new();
            let a = registry::run(&mut t, program, Variant::Original, Scale::Test, seed);
            let b = registry::run(&mut t, program, Variant::LoadTransformed, Scale::Test, seed);
            assert_eq!(a, b, "{program} seed {seed}: transformation changed results");
        }
    }
}

#[test]
fn tracing_does_not_change_results() {
    for program in ProgramId::ALL {
        let mut null = NullTracer::new();
        let native = registry::run(&mut null, program, Variant::Original, Scale::Test, 5);

        let mut tape = Tape::new(Characterizer::new());
        let traced = registry::run(&mut tape, program, Variant::Original, Scale::Test, 5);
        assert_eq!(native, traced, "{program}: characterizer perturbed results");

        let mut sim = Tape::new(CycleSim::new(PlatformConfig::alpha21264()));
        let simulated = registry::run(&mut sim, program, Variant::Original, Scale::Test, 5);
        assert_eq!(native, simulated, "{program}: cycle simulation perturbed results");
    }
}

#[test]
fn runs_are_seed_deterministic() {
    for program in ProgramId::ALL {
        let mut t = NullTracer::new();
        let a = registry::run(&mut t, program, Variant::Original, Scale::Test, 123);
        let b = registry::run(&mut t, program, Variant::Original, Scale::Test, 123);
        assert_eq!(a, b, "{program}: same seed must reproduce");
        let c = registry::run(&mut t, program, Variant::Original, Scale::Test, 124);
        assert_ne!(a, c, "{program}: different seeds should differ");
    }
}

#[test]
fn bank_replay_matches_four_sequential_replays_at_small_scale() {
    // The suite replays every recording through one shared-front bank
    // of all four platforms off one decode pass (one register plan,
    // branch merge and predictor per branch stream); a platform lane
    // inside the bank must produce the same cycle counts and hierarchy
    // stats as a dedicated sequential replay of the same recording.
    for program in ProgramId::ALL {
        let recording = record(program, Scale::Small, 42);
        let platforms = PlatformConfig::all();
        let mut bank = PlatformBank::new(&platforms);
        recording.replay(&mut bank);
        for (platform, banked) in platforms.iter().zip(bank.results()) {
            let mut solo = CycleSim::new(*platform);
            recording.replay(&mut solo);
            assert_eq!(
                banked,
                solo.result(),
                "{program}/{}: bank replay diverged from a sequential replay",
                platform.name
            );
        }
    }
}

#[test]
fn bank_replay_matches_the_reference_pipeline() {
    // Conformance cross-check of the bank path itself: each platform
    // lane fed by the shared decode and shared front must agree with the
    // reference pipeline replaying the same recording on the same
    // platform.
    let recording = record(ProgramId::Hmmsearch, Scale::Test, 42);
    let platforms = PlatformConfig::all();
    let mut bank = PlatformBank::new(&platforms);
    recording.replay(&mut bank);
    for (platform, banked) in platforms.iter().zip(bank.results()) {
        let mut reference = RefPipeline::new(*platform);
        recording.replay(&mut reference);
        assert_eq!(
            banked,
            reference.result(),
            "{}: bank replay diverged from the reference pipeline",
            platform.name
        );
    }
}

#[test]
#[should_panic(expected = "no load-transformed variant")]
fn untransformed_programs_reject_the_transformed_variant() {
    let mut t = NullTracer::new();
    registry::run(&mut t, ProgramId::Blast, Variant::LoadTransformed, Scale::Test, 1);
}
