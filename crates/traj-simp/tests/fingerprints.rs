//! Behaviour oracle for every [`Simplifier`]: each baseline runs on a
//! fixed-seed T-Drive-shaped database at two budgets, and an FNV-1a hash
//! of the kept indices must equal the pinned constant. Any change to an
//! algorithm's insertion/drop order, tie-breaking or budget split shows
//! up here as a hash mismatch.
//!
//! The constants were computed once and must not be edited to make a
//! change pass: a mismatch means the change altered which points a
//! simplifier keeps.

use traj_simp::rlts::{RltsPlus, RltsTrainConfig};
use traj_simp::{Adaptation, BottomUp, Simplifier, SpanSearch, TopDown, Uniform};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{ErrorMeasure, Simplification};

/// Budgets as fractions of the database's point count.
const RATIOS: [f64; 2] = [0.05, 0.25];

/// `(simplifier name, [hash at RATIOS[0], hash at RATIOS[1]])`.
const EXPECTED: &[(&str, [u64; 2])] = &[
    ("Top-Down(E,SED)", [0x2db2b5ebbb46e7a2, 0x1e921b4cc690abe2]),
    ("Bottom-Up(E,SED)", [0x8995dedbebebd2cd, 0x11a30d6e6186cd13]),
    ("Top-Down(W,SED)", [0xe5dece6af8c47fff, 0xe295ff90ee712423]),
    ("Bottom-Up(W,SED)", [0xac590cbd07bc3c76, 0x2941dd1e38227cb9]),
    ("Top-Down(E,PED)", [0xfca4f5e376d274d5, 0xedf643fae418443b]),
    ("Bottom-Up(E,PED)", [0x0983192e857cc3bd, 0x79915c7b56f4d6f5]),
    ("Top-Down(W,PED)", [0xf675cebb657277ba, 0xef9d309e122ddff7]),
    ("Bottom-Up(W,PED)", [0x3a00f145930d67c1, 0xd4f251b122d30a0b]),
    ("Top-Down(E,DAD)", [0x5b4f287215676fdb, 0xaf84cf034efc3da2]),
    ("Bottom-Up(E,DAD)", [0x34fb18ad2345e382, 0x8fb33170eadcfee9]),
    ("Top-Down(W,DAD)", [0xa5b8f693408a962f, 0x783f2f0fb5528738]),
    ("Bottom-Up(W,DAD)", [0x14763d3fbf006c23, 0x2cbbcbdd164f7f38]),
    ("Top-Down(E,SAD)", [0xf109e4fc45d6f1f3, 0x10d0de86fe68cc78]),
    ("Bottom-Up(E,SAD)", [0xaf95846685e42823, 0x6b0d534452afcb58]),
    ("Top-Down(W,SAD)", [0x1016bbbc12b28067, 0x7cb2eb5f754d09a4]),
    ("Bottom-Up(W,SAD)", [0xda9a0a3bcc0a9658, 0x911912828b969403]),
    ("RLTS+(W,SED)", [0xaedb5b4a4865471c, 0x99023850c0860dd4]),
    ("RLTS+(E,SED)", [0x0a09579a6e2b2524, 0xc52e4ae93f026697]),
    ("RLTS+(W,PED)", [0x12e713d957c2aadb, 0x48a2ada7daff32fe]),
    ("RLTS+(E,PED)", [0xba33bb7bedfc8e28, 0xc1d7ffea8f2a2e7d]),
    ("RLTS+(W,DAD)", [0x9264973c0d3dfc36, 0x1d28f3c9cf433f9a]),
    ("RLTS+(E,DAD)", [0x48a0774178290100, 0x688f169f5b238475]),
    ("RLTS+(W,SAD)", [0xe67e37425771fa23, 0x9ee7a138b5c981dd]),
    ("RLTS+(E,SAD)", [0x583eeb62c77f0d67, 0xe149030837cf204d]),
    ("Span-Search", [0xf3f8242245322bb0, 0xd2f9b721e804ec76]),
    ("Uniform", [0xa9a89f820efc3d77, 0x1e7902f65a36bae0]),
];

/// FNV-1a over every trajectory's kept-list length and indices (LE u32).
fn fingerprint(simp: &Simplification) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for id in 0..simp.len() {
        let kept = simp.kept(id);
        eat(kept.len() as u32);
        for &idx in kept {
            eat(idx);
        }
    }
    h
}

fn simplifiers() -> Vec<Box<dyn Simplifier>> {
    let adaptations = [Adaptation::Each, Adaptation::Whole];
    let mut out: Vec<Box<dyn Simplifier>> = Vec::new();
    for m in ErrorMeasure::ALL {
        for a in adaptations {
            out.push(Box::new(TopDown::new(m, a)));
            out.push(Box::new(BottomUp::new(m, a)));
        }
    }
    let train_db = generate(&DatasetSpec::tdrive(Scale::Smoke), 11);
    let cfg = RltsTrainConfig {
        episodes: 30,
        ..RltsTrainConfig::default()
    };
    for m in ErrorMeasure::ALL {
        let rlts = RltsPlus::train(m, Adaptation::Each, 3, &train_db, &cfg, 42);
        out.push(Box::new(rlts.with_adaptation(Adaptation::Whole)));
        out.push(Box::new(rlts));
    }
    out.push(Box::new(SpanSearch));
    out.push(Box::new(Uniform));
    out
}

#[test]
fn kept_sets_match_pinned_fingerprints() {
    let store = generate(&DatasetSpec::tdrive(Scale::Smoke), 7).to_store();
    let n = store.total_points();
    let mut actual: Vec<(String, [u64; 2])> = Vec::new();
    for s in simplifiers() {
        let hashes =
            RATIOS.map(|r| fingerprint(&s.simplify_store(&store, (n as f64 * r) as usize)));
        actual.push((s.name(), hashes));
    }
    let table: String = actual
        .iter()
        .map(|(name, [a, b])| format!("    (\"{name}\", [{a:#018x}, {b:#018x}]),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "simplifier set changed:\n{table}"
    );
    for ((name, hashes), (want_name, want)) in actual.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "simplifier order changed:\n{table}");
        assert_eq!(hashes, want, "{name} kept different points:\n{table}");
    }
}
