//! The fused master-side encode → decode,
//! `CompiledCodec::decode_partials_into`, against the two-pass route the
//! simulated engines used before it: `encode_into` per plan worker into
//! an `m × d` arrival block, then `DecodePlan::apply_block_into`. The two
//! must agree **bit for bit** for every scheme kind, every backend (each
//! reaches the fused call through `as_compiled()`), exact and
//! approximate plans, `f64` and `f32`, and dimensions on both sides of a
//! column-tile boundary — and an empty plan must fail with the same
//! error as before.

use hetgc::{
    AnyCodec, ClusterSpec, CodecBackend, DecodePlan, EscalatingCodec, EscalationPolicy,
    GradientBlock, GradientCodec, SchemeBuilder, SchemeKind,
};
use hetgc_coding::FUSED_TILE;
use hetgc_linalg::Element;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BACKENDS: [CodecBackend; 3] = [
    CodecBackend::Exact,
    CodecBackend::Group,
    CodecBackend::Approx,
];

fn random_block<E: Element>(k: usize, d: usize, rng: &mut StdRng) -> GradientBlock<E> {
    let mut block = GradientBlock::new(k, d);
    for x in block.as_mut_slice() {
        *x = E::from_f64(rng.gen_range(-3.0..3.0));
    }
    block
}

/// The pre-fusion route: every plan worker's coded gradient materialized
/// in an arrival block, then the blocked decode.
fn two_pass<E: Element>(
    codec: &AnyCodec,
    plan: &DecodePlan,
    partials: &GradientBlock<E>,
) -> Result<Vec<E>, String> {
    let d = partials.dim();
    let mut arrivals = GradientBlock::new(codec.workers(), d);
    for (w, _) in plan.iter() {
        codec
            .encode_into(w, partials, arrivals.row_mut(w))
            .map_err(|e| e.to_string())?;
    }
    let mut out = vec![E::ZERO; d];
    plan.apply_block_into(&arrivals, &mut out)
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// One fused-vs-two-pass comparison; the fused output starts as NaN so
/// an element it failed to overwrite cannot pass.
fn check_plan<E: Element>(
    codec: &AnyCodec,
    plan: &DecodePlan,
    partials: &GradientBlock<E>,
    label: &str,
) -> Result<(), String> {
    let reference = two_pass(codec, plan, partials)?;
    let mut fused = vec![E::from_f64(f64::NAN); partials.dim()];
    codec
        .as_compiled()
        .decode_partials_into(plan, partials, &mut fused)
        .map_err(|e| format!("{label}: {e}"))?;
    match reference
        .iter()
        .zip(&fused)
        .position(|(a, b)| a.to_f64().to_bits() != b.to_f64().to_bits())
    {
        Some(t) => Err(format!(
            "{label}: element {t} differs: two-pass {} vs fused {}",
            reference[t], fused[t]
        )),
        None => Ok(()),
    }
}

/// Every kind × backend over one cluster shape at dimension `d`, in both
/// element types: an exact plan for a random pattern within the
/// straggler budget, and an approximate plan (residual > 0) from the
/// escalation ladder for a pattern past it, where one exists. Returns
/// how many approximate plans were checked.
fn check_cluster(vcpus: &[u32], s: usize, seed: u64, d: usize) -> Result<usize, String> {
    let rows: Vec<(usize, u32)> = vcpus.iter().map(|&v| (1usize, v)).collect();
    let cluster = ClusterSpec::from_vcpu_rows("fused", &rows, 100.0).map_err(|e| e.to_string())?;
    let s = s.min(cluster.len() - 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut approximate = 0;
    for kind in SchemeKind::ALL {
        let Ok(scheme) = SchemeBuilder::new(&cluster, s).build(kind, &mut rng) else {
            continue;
        };
        let k = scheme.compile().partitions();
        let wide = random_block::<f64>(k, d, &mut rng);
        let narrow = random_block::<f32>(k, d, &mut rng);
        for backend in BACKENDS {
            let codec = scheme.compile_backend(backend).map_err(|e| e.to_string())?;
            let m = codec.workers();
            let mut order: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let alive = |dead: usize| -> Vec<usize> {
                let mut live = order[dead.min(m)..].to_vec();
                live.sort_unstable();
                live
            };
            let mut plans = Vec::new();
            let within = rng.gen_range(0..=scheme.stragglers());
            if let Ok(plan) = codec.decode_plan(&alive(within)) {
                plans.push(plan);
            }
            let ladder = EscalatingCodec::new(
                codec.clone(),
                EscalationPolicy::escalate_to(CodecBackend::Approx),
            );
            for dead in scheme.stragglers() + 1..m {
                if let Some(plan) = ladder.fallback_plan(&alive(dead)) {
                    if plan.residual() > 0.0 {
                        plans.push(plan);
                        approximate += 1;
                        break;
                    }
                }
            }
            for plan in &plans {
                let label = format!("{kind}/{backend} d={d} residual={}", plan.residual());
                check_plan(ladder.base(), plan, &wide, &format!("{label} f64"))?;
                check_plan(ladder.base(), plan, &narrow, &format!("{label} f32"))?;
            }
        }
    }
    Ok(approximate)
}

fn cluster() -> impl Strategy<Value = (Vec<u32>, usize, u64)> {
    (3usize..7, 0usize..3, any::<u64>())
        .prop_flat_map(|(m, s, seed)| (prop::collection::vec(1u32..5, m), Just(s), Just(seed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_decode_bitwise_equals_encode_then_block_decode(
        (vcpus, s, seed) in cluster(),
        pick in 0usize..4,
    ) {
        let d = [1, 7, FUSED_TILE - 1, FUSED_TILE + 1][pick];
        let outcome = check_cluster(&vcpus, s, seed, d);
        prop_assert!(outcome.is_ok(), "{outcome:?}");
    }
}

/// The `sim-b16` gradient width, across many tiles and a ragged last
/// one; the approximate arm must actually be exercised.
#[test]
fn fused_decode_bitwise_at_full_model_width() {
    let approximate = check_cluster(&[1, 2, 3, 4, 4], 1, 7, 64_010).unwrap();
    assert!(approximate > 0, "no approximate plan was checked");
}

#[test]
fn fused_decode_of_an_empty_plan_fails_like_apply() {
    let mut rng = StdRng::seed_from_u64(3);
    let scheme = SchemeBuilder::new(&ClusterSpec::cluster_a(), 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let codec = scheme.compile();
    let (m, k) = (codec.workers(), codec.partitions());
    let partials = random_block::<f64>(k, 9, &mut rng);
    let empty = DecodePlan::from_dense(&vec![0.0; m]);
    let arrivals = GradientBlock::<f64>::new(m, 9);
    let mut out = vec![0.0; 9];
    let before = empty.apply_block_into(&arrivals, &mut out).unwrap_err();
    let fused = codec
        .decode_partials_into(&empty, &partials, &mut out)
        .unwrap_err();
    assert_eq!(fused, before);
    assert!(matches!(fused, hetgc::CodingError::InvalidParameter { .. }));
}

#[test]
fn fused_decode_rejects_mismatched_shapes() {
    let mut rng = StdRng::seed_from_u64(4);
    let scheme = SchemeBuilder::new(&ClusterSpec::cluster_a(), 1)
        .build(SchemeKind::HeterAware, &mut rng)
        .unwrap();
    let codec = scheme.compile();
    let (m, k) = (codec.workers(), codec.partitions());
    let plan = codec.decode_plan(&(1..m).collect::<Vec<_>>()).unwrap();
    let short = random_block::<f64>(k - 1, 9, &mut rng);
    assert!(codec
        .decode_partials_into(&plan, &short, &mut [0.0; 9])
        .is_err());
    let partials = random_block::<f64>(k, 9, &mut rng);
    assert!(codec
        .decode_partials_into(&plan, &partials, &mut [0.0; 8])
        .is_err());
    let outside = DecodePlan::from_dense(&[vec![0.0; m], vec![1.0]].concat());
    assert!(codec
        .decode_partials_into(&outside, &partials, &mut [0.0; 9])
        .is_err());
}
