//! Adversarial decode suite for the snapshot layer: corrupt, truncated,
//! and stale files must produce structured errors or counted skips —
//! never a panic, never a poisoned shard, never a half-merged section
//! visible as a wrong verdict.

use rtcg_core::feasibility::SearchConfig;
use rtcg_engine::{AnalysisRequest, Engine, SnapshotError};

fn exact_req() -> AnalysisRequest {
    AnalysisRequest {
        search: SearchConfig {
            max_len: 6,
            node_budget: 2_000_000,
        },
        ..AnalysisRequest::exact()
    }
}

/// A snapshot with two result sections: the Mok example (two entries:
/// heuristic + exact) and a deadline-edited copy (heuristic).
fn snapshot_bytes() -> Vec<u8> {
    let (m, _) = rtcg_core::mok_example::default_model();
    let id = rtcg_core::ConstraintId::new(0);
    let deadline = m.constraint(id).unwrap().deadline + 1;
    let edited = rtcg_core::sensitivity::with_deadline(&m, id, deadline)
        .unwrap()
        .unwrap();
    let engine = Engine::new();
    engine.analyze(&m, &AnalysisRequest::default()).unwrap();
    engine.analyze(&m, &exact_req()).unwrap();
    engine
        .analyze(&edited, &AnalysisRequest::default())
        .unwrap();
    let (bytes, save) = engine.snapshot_bytes(&[]).unwrap();
    assert!(save.sections >= 2);
    bytes
}

/// The engine still answers correctly and no shard lock was ever
/// poisoned.
fn assert_unpoisoned(engine: &Engine) {
    let (m, _) = rtcg_core::mok_example::default_model();
    let report = engine.analyze(&m, &AnalysisRequest::default()).unwrap();
    let cold = rtcg_engine::analyze_once(&m, &AnalysisRequest::default()).unwrap();
    assert_eq!(
        report.verdict.schedule().map(|s| s.actions().to_vec()),
        cold.verdict.schedule().map(|s| s.actions().to_vec())
    );
    let stats = engine.stats();
    assert_eq!(
        stats
            .shards
            .iter()
            .map(|s| s.poison_recoveries)
            .sum::<u64>(),
        0
    );
}

/// Truncation at *every* byte offset — which covers every section
/// boundary and every mid-structure cut — must return a structured
/// error (or, for offsets that happen to decode, an `Ok` with counted
/// skips). Nothing may panic; partially merged earlier sections are
/// permitted (atomicity is per-section) but must never corrupt later
/// analysis.
#[test]
fn truncation_at_every_offset_is_structured() {
    let bytes = snapshot_bytes();
    let engine = Engine::new();
    let mut errors = 0usize;
    for cut in 0..bytes.len() {
        match engine.load_snapshot_bytes(&bytes[..cut], &mut []) {
            Ok(_) => {}
            Err(
                SnapshotError::Truncated(_)
                | SnapshotError::Malformed(_)
                | SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_),
            ) => errors += 1,
            Err(SnapshotError::Io(e)) => panic!("no file io involved: {e}"),
        }
    }
    assert!(errors > 0, "short prefixes must error");
    // the full file still loads after all that abuse
    let full = engine.load_snapshot_bytes(&bytes, &mut []).unwrap();
    assert_eq!(full.sections_skipped, 0);
    assert_unpoisoned(&engine);
}

/// Every single-byte flip is either a structured error or a load whose
/// stale sections were skipped and counted — never a panic. (The
/// digest check makes silently accepting corrupted content into a
/// *section merge* require an FNV collision.)
#[test]
fn byte_flips_never_panic() {
    let bytes = snapshot_bytes();
    let engine = Engine::new();
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        match engine.load_snapshot_bytes(&corrupt, &mut []) {
            Ok(_) | Err(_) => {}
        }
    }
    assert_unpoisoned(&engine);
}

/// Flipped magic and version bytes are the two distinguished header
/// errors.
#[test]
fn header_flips_are_distinguished_errors() {
    let bytes = snapshot_bytes();
    let engine = Engine::new();
    for pos in 0..8 {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        assert!(
            matches!(
                engine.load_snapshot_bytes(&corrupt, &mut []),
                Err(SnapshotError::BadMagic)
            ),
            "magic byte {pos}"
        );
    }
    for pos in 8..12 {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        assert!(
            matches!(
                engine.load_snapshot_bytes(&corrupt, &mut []),
                Err(SnapshotError::UnsupportedVersion(_))
            ),
            "version byte {pos}"
        );
    }
    assert_unpoisoned(&engine);
}

/// A digest-mismatched section is skipped and counted while the rest
/// of the file merges normally.
#[test]
fn digest_mismatch_skips_only_that_section() {
    let (m, _) = rtcg_core::mok_example::default_model();
    let bytes = snapshot_bytes();
    let digest = m.content_digest().to_le_bytes();
    let pos = bytes
        .windows(8)
        .position(|w| w == digest)
        .expect("digest bytes present");
    let mut corrupt = bytes.clone();
    corrupt[pos] ^= 0x01;

    let engine = Engine::new();
    let load = engine.load_snapshot_bytes(&corrupt, &mut []).unwrap();
    assert_eq!(load.sections_skipped, 1);
    assert!(load.sections_loaded >= 1, "other sections still merge");
    assert_eq!(engine.stats().snapshot.sections_skipped, 1);
    assert_unpoisoned(&engine);
}

/// Appending trailing garbage after the final section is malformed —
/// the section count makes clean-EOF distinguishable from truncation.
#[test]
fn trailing_garbage_is_malformed() {
    let mut bytes = snapshot_bytes();
    bytes.push(0xAA);
    let engine = Engine::new();
    assert!(matches!(
        engine.load_snapshot_bytes(&bytes, &mut []),
        Err(SnapshotError::Malformed(_))
    ));
    assert_unpoisoned(&engine);
}

/// An empty file and a few tiny prefixes have precise errors.
#[test]
fn tiny_inputs_are_structured() {
    let engine = Engine::new();
    assert!(matches!(
        engine.load_snapshot_bytes(&[], &mut []),
        Err(SnapshotError::Truncated(_))
    ));
    assert!(matches!(
        engine.load_snapshot_bytes(b"RTCG", &mut []),
        Err(SnapshotError::Truncated(_))
    ));
    assert!(matches!(
        engine.load_snapshot_bytes(b"NOTASNAP\x01\x00\x00\x00\x00\x00\x00\x00", &mut []),
        Err(SnapshotError::BadMagic)
    ));
    assert_unpoisoned(&engine);
}
