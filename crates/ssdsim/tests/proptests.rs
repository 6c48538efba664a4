//! Property-based tests for the flash array and the simulator: allocation
//! must conserve pages, GC must reclaim what it erases, and the simulator
//! must stay internally consistent for arbitrary configurations.

use proptest::prelude::*;
use ssdsim::config::{
    DeviceFamily, FlashTechnology, GcPolicy, MigrationPolicy, PlaneAllocationScheme, SsdConfig,
};
use ssdsim::flash::{pseudo_location, splitmix64, BackgroundOp, FlashArray};
use ssdsim::BottleneckReport;
use std::collections::HashMap;

fn arb_layout() -> impl Strategy<Value = SsdConfig> {
    (
        1u32..=4,
        1u32..=3,
        1u32..=2,
        prop::sample::select(vec![1u32, 2, 4]),
        prop::sample::select(vec![8u32, 16, 32]),
        prop::sample::select(vec![8u32, 16, 32]),
        0usize..16,
        prop::bool::ANY,
    )
        .prop_map(
            |(ch, chips, dies, planes, blocks, pages, scheme, greedy)| SsdConfig {
                channel_count: ch,
                chips_per_channel: chips,
                dies_per_chip: dies,
                planes_per_die: planes,
                blocks_per_plane: blocks,
                pages_per_block: pages,
                plane_allocation_scheme: PlaneAllocationScheme::ALL[scheme],
                gc_policy: if greedy {
                    GcPolicy::Greedy
                } else {
                    GcPolicy::Random
                },
                gc_threshold: 0.2,
                gc_hard_threshold: 0.01,
                ..SsdConfig::default()
            },
        )
}

fn arb_hybrid_layout() -> impl Strategy<Value = SsdConfig> {
    (arb_layout(), 5.0f64..=40.0, 10.0f64..=80.0, prop::bool::ANY).prop_map(
        |(cfg, cache_pct, threshold_pct, watermark)| SsdConfig {
            flash_technology: FlashTechnology::Qlc,
            device_family: DeviceFamily::HybridSlcCache {
                cache_blocks_pct: cache_pct,
                migration_policy: if watermark {
                    MigrationPolicy::Watermark
                } else {
                    MigrationPolicy::Idle
                },
                migration_threshold_pct: threshold_pct,
            },
            ..cfg
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn striping_cycles_through_every_plane(cfg in arb_layout()) {
        let mut fa = FlashArray::new(&cfg);
        let total = cfg.total_planes();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..total {
            let p = fa.next_write_plane();
            prop_assert!(u64::from(p) < total);
            seen.insert(p);
        }
        // One full cycle touches every plane exactly once.
        prop_assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn programs_conserve_page_accounting(cfg in arb_layout(), writes in 1usize..300) {
        let mut fa = FlashArray::new(&cfg);
        let before: u64 = (0..cfg.total_planes() as u32).map(|p| fa.free_pages(p)).sum();
        let mut programmed = 0u64;
        for _ in 0..writes {
            let plane = fa.next_write_plane();
            let (block, _page, _ops) = fa.program_page(plane);
            fa.invalidate(plane, block);
            programmed += 1;
        }
        let after: u64 = (0..cfg.total_planes() as u32).map(|p| fa.free_pages(p)).sum();
        let stats = fa.stats();
        // free_before - free_after = programs (host + migrations) - reclaimed.
        let reclaimed = stats.erases * u64::from(cfg.pages_per_block);
        let consumed = stats.programs + stats.migrated_pages;
        prop_assert_eq!(before + reclaimed, after + consumed);
        prop_assert_eq!(stats.programs, programmed);
    }

    #[test]
    fn sustained_overwrites_never_exhaust_the_device(cfg in arb_layout()) {
        let mut fa = FlashArray::new(&cfg);
        fa.warm_up(0.5);
        // Overwrite forever on plane 0: GC must keep the device alive.
        let churn = cfg.pages_per_plane() * 3;
        for i in 0..churn {
            let (block, _page, _ops) = fa.program_page(0);
            if i % 2 == 0 {
                fa.invalidate(0, block);
            } else {
                fa.invalidate_somewhere(0, i);
            }
        }
        prop_assert!(fa.stats().erases > 0);
        prop_assert!(fa.free_pages(0) <= cfg.pages_per_plane());
    }

    #[test]
    fn hybrid_migration_conserves_pages(cfg in arb_hybrid_layout(), writes in 1usize..400) {
        let mut fa = FlashArray::new(&cfg);
        let ppb = u64::from(cfg.pages_per_block);
        let cache_pages = u64::from(fa.slc_cache_blocks()) * ppb;
        let capacity_pages = cfg.pages_per_plane() - cache_pages;
        prop_assert!(fa.slc_cache_blocks() >= 1);
        for i in 0..writes {
            let plane = fa.next_write_plane();
            let (block, _page, _ops) = fa.program_page(plane);
            if i % 3 == 0 {
                fa.invalidate(plane, block);
            }
        }
        let stats = fa.stats();
        // Tier accounting is exact: every page the array consumed is either
        // still free, was reclaimed by an erase, or was paid for by a host
        // program, a GC migration, or an SLC fold.
        let free: u64 = (0..cfg.total_planes() as u32)
            .map(|p| fa.free_pages(p) + fa.cache_free_pages(p))
            .sum();
        let reclaimed = stats.erases * ppb;
        let consumed = stats.programs + stats.migrated_pages + stats.slc_migrated_pages;
        prop_assert_eq!(cfg.pages_per_plane() * cfg.total_planes() + reclaimed, free + consumed);
        for p in 0..cfg.total_planes() as u32 {
            // Neither tier can ever exceed its physical size.
            prop_assert!(fa.valid_pages(p) <= cfg.pages_per_plane());
            prop_assert!(fa.free_pages(p) <= capacity_pages);
            prop_assert!(fa.cache_free_pages(p) <= cache_pages);
        }
    }

    #[test]
    fn hybrid_survives_sustained_overwrites(cfg in arb_hybrid_layout()) {
        let mut fa = FlashArray::new(&cfg);
        fa.warm_up(0.5);
        let churn = cfg.pages_per_plane() * 3;
        for i in 0..churn {
            let (block, _page, _ops) = fa.program_page(0);
            if i % 2 == 0 {
                fa.invalidate(0, block);
            } else {
                fa.invalidate_somewhere(0, i);
            }
        }
        let stats = fa.stats();
        prop_assert!(stats.slc_migrated_pages > 0, "sustained writes must fold cache blocks");
        prop_assert!(stats.erases > 0);
        let cache_pages = u64::from(fa.slc_cache_blocks()) * u64::from(cfg.pages_per_block);
        prop_assert!(fa.cache_free_pages(0) <= cache_pages);
        prop_assert!(fa.free_pages(0) <= cfg.pages_per_plane() - cache_pages);
        prop_assert!(fa.valid_pages(0) <= cfg.pages_per_plane());
    }

    #[test]
    fn pseudo_locations_are_valid_and_deterministic(cfg in arb_layout(), lpns in prop::collection::vec(0u64..1_000_000, 1..50)) {
        for &lpn in &lpns {
            let a = pseudo_location(&cfg, lpn);
            prop_assert_eq!(a, pseudo_location(&cfg, lpn));
            prop_assert!(a.channel < cfg.channel_count);
            prop_assert!(a.chip < cfg.chips_per_channel);
            prop_assert!(a.die < cfg.dies_per_chip);
            prop_assert!(a.plane < cfg.planes_per_die);
            prop_assert!(a.block < cfg.blocks_per_plane);
            prop_assert!(a.page < cfg.pages_per_block);
            prop_assert!(u64::from(a.plane_index(&cfg)) < cfg.total_planes());
        }
    }

    #[test]
    fn bottleneck_fractions_stay_normalized(
        total in 0u64..u64::MAX / 8,
        channel in 0u64..u64::MAX / 8,
        plane in 0u64..u64::MAX / 8,
        gc in 0u64..u64::MAX / 8,
        cache in 0u64..u64::MAX / 8,
        queue in 0u64..u64::MAX / 8,
        slc in 0u64..u64::MAX / 8,
    ) {
        let report = BottleneckReport::from_totals(total, channel, plane, gc, cache, queue, slc);
        let mut sum = 0.0f64;
        for (name, frac) in report.fractions() {
            prop_assert!((0.0..=1.0).contains(&frac), "{name} = {frac} out of range");
            sum += frac;
        }
        prop_assert!((0.0..=1.0).contains(&report.other_frac), "other = {} out of range", report.other_frac);
        sum += report.other_frac;
        // The attributed fractions can never explain more than 100% of
        // the observed latency; `other` absorbs exactly the remainder.
        prop_assert!(sum <= 1.0 + 1e-9, "fractions sum to {sum}");
        if total > 0 {
            prop_assert!(sum >= 1.0 - 1e-9, "with latency observed, shares must cover it (sum = {sum})");
        }
        prop_assert!(!report.dominant().is_empty());
    }

    #[test]
    fn derived_quantities_are_consistent(cfg in arb_layout()) {
        prop_assert_eq!(
            cfg.physical_capacity_bytes(),
            cfg.total_planes()
                * u64::from(cfg.blocks_per_plane)
                * u64::from(cfg.pages_per_block)
                * u64::from(cfg.page_size_bytes)
        );
        prop_assert!(cfg.logical_capacity_bytes() <= cfg.physical_capacity_bytes());
        prop_assert_eq!(cfg.total_planes(), cfg.total_dies() * u64::from(cfg.planes_per_die));
        prop_assert!(cfg.channel_transfer_ns() > 0);
        prop_assert!(cfg.link_bandwidth_bps() > 0.0);
    }
}

/// Geometries drawn from the tuner catalog's value grids
/// (`autoblox::params::param_grid`), restricted to their smaller entries so
/// an eager reference array stays cheap, in either device family and any
/// flash technology the family admits.
fn arb_catalog_device() -> impl Strategy<Value = SsdConfig> {
    (
        (
            prop::sample::select(vec![1u32, 2, 4]),
            prop::sample::select(vec![1u32, 2, 3]),
            prop::sample::select(vec![1u32, 2]),
            prop::sample::select(vec![1u32, 2, 3]),
            prop::sample::select(vec![128u32, 256, 512]),
            prop::sample::select(vec![128u32, 256, 384]),
            0usize..16,
            prop::bool::ANY,
        ),
        (
            prop::sample::select(vec![
                FlashTechnology::Slc,
                FlashTechnology::Mlc,
                FlashTechnology::Tlc,
                FlashTechnology::Qlc,
            ]),
            prop::bool::ANY,
            5.0f64..=50.0,
            10.0f64..=80.0,
            prop::bool::ANY,
        ),
    )
        .prop_map(
            |(
                (ch, chips, dies, planes, blocks, pages, scheme, greedy),
                (tech, hybrid, cache_pct, threshold_pct, watermark),
            )| {
                let device_family = if hybrid {
                    DeviceFamily::HybridSlcCache {
                        cache_blocks_pct: cache_pct,
                        migration_policy: if watermark {
                            MigrationPolicy::Watermark
                        } else {
                            MigrationPolicy::Idle
                        },
                        migration_threshold_pct: threshold_pct,
                    }
                } else {
                    DeviceFamily::Homogeneous
                };
                SsdConfig {
                    channel_count: ch,
                    chips_per_channel: chips,
                    dies_per_chip: dies,
                    planes_per_die: planes,
                    blocks_per_plane: blocks,
                    pages_per_block: pages,
                    plane_allocation_scheme: PlaneAllocationScheme::ALL[scheme],
                    gc_policy: if greedy {
                        GcPolicy::Greedy
                    } else {
                        GcPolicy::Random
                    },
                    // A hybrid cache needs a multi-bit capacity tier.
                    flash_technology: if hybrid && tech == FlashTechnology::Slc {
                        FlashTechnology::Qlc
                    } else {
                        tech
                    },
                    device_family,
                    ..SsdConfig::default()
                }
            },
        )
}

/// An array whose planes are all built before anything else happens, so
/// every warm-up takes the block-by-block path: the eager reference the
/// lazily built array must match. Invalidating a fresh plane's capacity
/// active block builds the plane and changes nothing, since that block holds
/// no valid page yet.
fn eager_array(cfg: &SsdConfig) -> FlashArray {
    let mut fa = FlashArray::new(cfg);
    let active = fa.slc_cache_blocks();
    for p in 0..cfg.total_planes() as u32 {
        fa.invalidate(p, active);
        assert_eq!(fa.valid_pages(p), 0);
    }
    fa
}

/// Everything the array exposes about its state.
fn array_state(fa: &FlashArray) -> (Vec<(u64, u64, u64)>, u32, u64, ssdsim::flash::FlashStats) {
    let planes = (0..fa.plane_count() as u32)
        .map(|p| (fa.valid_pages(p), fa.free_pages(p), fa.cache_free_pages(p)))
        .collect();
    (planes, fa.erase_spread(), fa.gc_backlog_pages(), fa.stats())
}

/// Overwrites `lpns` the way the simulator's write path does: invalidate
/// the old copy (a hashed block of its pseudo-location plane when it was
/// never written), then program a striped page. Returns every program's
/// outcome.
fn overwrite(
    fa: &mut FlashArray,
    cfg: &SsdConfig,
    map: &mut HashMap<u64, (u32, u32)>,
    lpns: &[u64],
) -> Vec<(u32, u32, u32, Vec<BackgroundOp>)> {
    lpns.iter()
        .map(|&lpn| {
            match map.get(&lpn) {
                Some(&(plane, block)) => fa.invalidate(plane, block),
                None => fa.invalidate_somewhere(
                    pseudo_location(cfg, lpn).plane_index(cfg),
                    splitmix64(lpn),
                ),
            }
            let plane = fa.next_write_plane();
            let (block, page, ops) = fa.program_page(plane);
            map.insert(lpn, (plane, block));
            (plane, block, page, ops)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Catalog-range devices cover the tuner's geometries; the tiny layouts
    // overflow their planes, so GC, folds and emergency erases run on
    // lazily built planes too.
    #[test]
    fn lazy_warm_up_matches_eager_reference(
        cfg in prop_oneof![arb_catalog_device(), arb_layout(), arb_hybrid_layout()],
        partial in prop::collection::vec(0u64..4_000, 1..120),
        trace in prop::collection::vec(0u64..4_000, 1..200),
    ) {
        // Fills 0, 0.5 and 0.95; twice with different fills; each with and
        // without a partial run first, which builds only the planes it
        // touches.
        let schedules: [&[f64]; 5] = [&[0.0], &[0.5], &[0.95], &[0.5, 0.95], &[0.95, 0.0]];
        for fills in schedules {
            for partial in [&partial[..0], &partial[..]] {
                let mut lazy = FlashArray::new(&cfg);
                let mut eager = eager_array(&cfg);
                let (mut lazy_map, mut eager_map) = (HashMap::new(), HashMap::new());
                prop_assert_eq!(array_state(&lazy), array_state(&eager));
                prop_assert_eq!(
                    overwrite(&mut lazy, &cfg, &mut lazy_map, partial),
                    overwrite(&mut eager, &cfg, &mut eager_map, partial)
                );
                for &fill in fills {
                    lazy.warm_up(fill);
                    eager.warm_up(fill);
                    prop_assert_eq!(array_state(&lazy), array_state(&eager));
                }
                // A short trace replays identically, program by program.
                prop_assert_eq!(
                    overwrite(&mut lazy, &cfg, &mut lazy_map, &trace),
                    overwrite(&mut eager, &cfg, &mut eager_map, &trace)
                );
                prop_assert_eq!(array_state(&lazy), array_state(&eager));
            }
        }
    }
}
