//! Server-shaped traffic generation at millions-of-sessions scale.
//!
//! The benchmark suite covers the paper's microbenchmarks; this module
//! covers the ROADMAP's north star — traffic that looks like a real
//! multi-tenant server under load — as a *generator of `.trc` traces*
//! rather than another hard-coded loop, so the same traffic replays
//! against every allocator and every future optimization:
//!
//! * **Poisson arrivals**: session inter-arrival times are exponential
//!   (`−mean·ln U`), the classic open-system model.
//! * **Connection storms**: with small probability an arrival is a
//!   *storm* — a burst of back-to-back connections (load balancer
//!   failover, cache stampede, reconnect-after-deploy).
//! * **Long-tail session objects**: sizes mix small request/session
//!   state with a Pareto tail (the one big websocket buffer in a sea of
//!   small HTTP sessions); lifetimes are Pareto too, so most sessions
//!   die young while a heavy tail lingers for the whole run.
//! * **Tenant churn**: every session belongs to a tenant; occasionally
//!   a whole tenant is evicted and all its live sessions free at once —
//!   the bulk-free pattern that shreds naive per-thread caches.
//! * **Cross-worker frees**: a fraction of sessions migrate (explicit
//!   `Send` records), so the remote-free path sees realistic traffic.
//!
//! All randomness derives from [`Params::seed`], which is written into
//! the `.trc` header — a trace is reproducible from its own file.

use hoard_sim::Rng;
use hoard_trace::{TrcOp, TrcRecord, TrcTrace};
use std::collections::BinaryHeap;

/// Knobs for [`generate`]. Defaults describe a small smoke-scale run;
/// the CI job and `hoardscope gen` scale `sessions` up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Worker threads (streams in the trace).
    pub workers: usize,
    /// Total sessions to run through the system.
    pub sessions: u64,
    /// Mean virtual units between arrivals (exponential).
    pub mean_interarrival: f64,
    /// Per-mille chance an arrival is a connection storm.
    pub storm_permille: u32,
    /// Sessions in one storm burst.
    pub storm_burst: u32,
    /// Smallest session object, bytes.
    pub min_size: u32,
    /// Size cap, bytes (the Pareto tail is clamped here).
    pub max_size: u32,
    /// Pareto shape for sizes (smaller = heavier tail).
    pub size_alpha: f64,
    /// Median-ish session lifetime in virtual units.
    pub base_lifetime: f64,
    /// Pareto shape for lifetimes.
    pub lifetime_alpha: f64,
    /// Lifetime cap (virtual units).
    pub max_lifetime: f64,
    /// Number of tenants sessions are spread over.
    pub tenants: usize,
    /// Per-mille chance, per arrival, that a random tenant is evicted
    /// (all its live sessions free immediately).
    pub churn_permille: u32,
    /// Per-mille of sessions handed to another worker before dying
    /// (freed remotely).
    pub migrate_permille: u32,
    /// Virtual work units charged per request on its worker (0 = none).
    pub work_per_request: u32,
    /// PRNG seed, recorded in the trace header.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            workers: 4,
            sessions: 20_000,
            mean_interarrival: 40.0,
            storm_permille: 8,
            storm_burst: 64,
            min_size: 48,
            max_size: 16_384,
            size_alpha: 1.6,
            base_lifetime: 4_000.0,
            lifetime_alpha: 1.2,
            max_lifetime: 2_000_000.0,
            tenants: 64,
            churn_permille: 2,
            migrate_permille: 150,
            work_per_request: 5,
            seed: 0x5EED_5E55,
        }
    }
}

/// What [`generate`] produced, for reports and sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenSummary {
    /// Sessions (alloc records) generated.
    pub sessions: u64,
    /// Storm bursts that fired.
    pub storms: u64,
    /// Tenant evictions that fired.
    pub evictions: u64,
    /// Sessions freed by tenant eviction rather than natural death.
    pub evicted_sessions: u64,
    /// Sessions freed on a different worker than allocated them.
    pub migrated: u64,
    /// Peak concurrently-live sessions.
    pub peak_live: u64,
    /// Sum of all session sizes, bytes.
    pub total_bytes: u64,
}

/// One live session awaiting death (natural or churn); keyed by token
/// in the live map.
#[derive(Debug, Clone, Copy)]
struct Live {
    free_worker: usize,
    tenant: usize,
}

/// Min-heap entry on death time. `token` breaks ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Death {
    at: u64,
    token: u64,
}

impl Ord for Death {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.token).cmp(&(self.at, self.token))
    }
}

impl PartialOrd for Death {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Unit-interval sample that is never exactly 0 (safe for `ln`/powers).
fn unit(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Exponential sample with the given mean, ≥ 1.
fn exponential(rng: &mut Rng, mean: f64) -> u64 {
    (-mean * unit(rng).ln()).max(1.0) as u64
}

/// Pareto sample: `scale · U^(−1/alpha)`, clamped to `cap`.
fn pareto(rng: &mut Rng, scale: f64, alpha: f64, cap: f64) -> f64 {
    (scale * unit(rng).powf(-1.0 / alpha)).min(cap)
}

/// Generate a server-traffic trace. Deterministic in [`Params`]: the
/// same parameters yield a byte-identical [`TrcTrace`].
pub fn generate(params: &Params) -> (TrcTrace, GenSummary) {
    let workers = params.workers.max(1);
    let tenants = params.tenants.max(1);
    let mut rng = Rng::new(params.seed, 0);
    let mut streams: Vec<Vec<TrcRecord>> = vec![Vec::new(); workers];
    let mut last_ts: Vec<u64> = vec![0; workers];
    let emit = |streams: &mut Vec<Vec<TrcRecord>>,
                    last_ts: &mut Vec<u64>,
                    worker: usize,
                    clock: u64,
                    op: TrcOp| {
        let dt = clock.saturating_sub(last_ts[worker]);
        last_ts[worker] = clock.max(last_ts[worker]);
        streams[worker].push(TrcRecord { dt, op });
    };

    let mut summary = GenSummary::default();
    let mut clock: u64 = 0;
    let mut next_token: u64 = 0;
    // Live sessions by token; lazy deletion for the death heap.
    let mut live: std::collections::HashMap<u64, Live> = std::collections::HashMap::new();
    let mut by_tenant: Vec<Vec<u64>> = vec![Vec::new(); tenants];
    let mut deaths: BinaryHeap<Death> = BinaryHeap::new();

    let reap = |deaths: &mut BinaryHeap<Death>,
                    live: &mut std::collections::HashMap<u64, Live>,
                    by_tenant: &mut Vec<Vec<u64>>,
                    streams: &mut Vec<Vec<TrcRecord>>,
                    last_ts: &mut Vec<u64>,
                    now: u64| {
        while deaths.peek().is_some_and(|d| d.at <= now) {
            let d = deaths.pop().expect("peeked");
            // Stale entry (already churned away): skip.
            let Some(s) = live.remove(&d.token) else {
                continue;
            };
            by_tenant[s.tenant].retain(|&t| t != d.token);
            let dt = d.at.saturating_sub(last_ts[s.free_worker]);
            last_ts[s.free_worker] = d.at.max(last_ts[s.free_worker]);
            streams[s.free_worker].push(TrcRecord {
                dt,
                op: TrcOp::Free { token: d.token },
            });
        }
    };

    while summary.sessions < params.sessions {
        // Arrival process: lone arrival or a storm burst.
        clock += exponential(&mut rng, params.mean_interarrival);
        let burst = if rng.range(0, 999) < params.storm_permille as usize {
            summary.storms += 1;
            params.storm_burst.max(1) as u64
        } else {
            1
        };

        reap(
            &mut deaths,
            &mut live,
            &mut by_tenant,
            &mut streams,
            &mut last_ts,
            clock,
        );

        for b in 0..burst {
            if summary.sessions >= params.sessions {
                break;
            }
            // Storm connections land back-to-back, one unit apart.
            let at = clock + b;
            let worker = rng.range(0, workers - 1);
            let tenant = rng.range(0, tenants - 1);
            let size = pareto(
                &mut rng,
                params.min_size.max(1) as f64,
                params.size_alpha,
                params.max_size.max(params.min_size) as f64,
            ) as u32;
            let lifetime = pareto(
                &mut rng,
                params.base_lifetime,
                params.lifetime_alpha,
                params.max_lifetime,
            ) as u64;
            let migrated = workers > 1 && rng.range(0, 999) < params.migrate_permille as usize;
            let free_worker = if migrated {
                let mut w = rng.range(0, workers - 2);
                if w >= worker {
                    w += 1;
                }
                summary.migrated += 1;
                w
            } else {
                worker
            };

            let token = next_token;
            next_token += 1;
            // Site = tenant + 1: the generator's natural allocation-site
            // axis (derived from an already-drawn value, so stamping
            // sites does not perturb the RNG stream or the trace shape).
            emit(
                &mut streams,
                &mut last_ts,
                worker,
                at,
                TrcOp::Alloc {
                    token,
                    size,
                    site: tenant as u32 + 1,
                },
            );
            if migrated {
                emit(
                    &mut streams,
                    &mut last_ts,
                    worker,
                    at,
                    TrcOp::Send {
                        token,
                        to: free_worker as u32,
                    },
                );
            }
            if params.work_per_request > 0 {
                emit(
                    &mut streams,
                    &mut last_ts,
                    worker,
                    at,
                    TrcOp::Work {
                        units: params.work_per_request,
                    },
                );
            }
            live.insert(token, Live { free_worker, tenant });
            by_tenant[tenant].push(token);
            deaths.push(Death {
                at: at + lifetime.max(1),
                token,
            });
            summary.sessions += 1;
            summary.total_bytes += u64::from(size.max(1));
            summary.peak_live = summary.peak_live.max(live.len() as u64);
        }

        // Tenant churn: evict one tenant's whole cohort right now.
        if rng.range(0, 999) < params.churn_permille as usize {
            let victim = rng.range(0, tenants - 1);
            let cohort = std::mem::take(&mut by_tenant[victim]);
            if !cohort.is_empty() {
                summary.evictions += 1;
            }
            for token in cohort {
                let Some(s) = live.remove(&token) else {
                    continue;
                };
                summary.evicted_sessions += 1;
                emit(
                    &mut streams,
                    &mut last_ts,
                    s.free_worker,
                    clock,
                    TrcOp::Free { token },
                );
            }
        }
    }

    // Drain: everything still live dies at its scheduled time.
    reap(
        &mut deaths,
        &mut live,
        &mut by_tenant,
        &mut streams,
        &mut last_ts,
        u64::MAX,
    );
    debug_assert!(live.is_empty(), "all sessions freed");

    let config = format!(
        "server_traffic workers={} sessions={} tenants={} storm={}/1000x{} churn={}/1000 migrate={}/1000",
        workers,
        params.sessions,
        tenants,
        params.storm_permille,
        params.storm_burst,
        params.churn_permille,
        params.migrate_permille,
    );
    (
        TrcTrace {
            seed: params.seed,
            config,
            streams,
        },
        summary,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn small() -> Params {
        Params {
            workers: 3,
            sessions: 2_000,
            tenants: 8,
            churn_permille: 20,
            storm_permille: 30,
            storm_burst: 16,
            ..Default::default()
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let (a, sa) = generate(&small());
        let (b, sb) = generate(&small());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(a.encode(), b.encode(), "byte-identical .trc");
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = generate(&small());
        let (b, _) = generate(&Params {
            seed: 1,
            ..small()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn every_session_allocates_once_and_dies_once() {
        let (trc, summary) = generate(&small());
        assert_eq!(summary.sessions, 2_000);
        assert_eq!(trc.allocs(), 2_000);
        let trace = Trace::from_trc(&trc).expect("convertible");
        trace.validate().expect("well-formed: every session freed once");
    }

    #[test]
    fn traffic_shape_shows_up() {
        let (trc, summary) = generate(&small());
        assert!(summary.storms > 0, "storms fired: {summary:?}");
        assert!(summary.evictions > 0, "churn fired: {summary:?}");
        assert!(summary.migrated > 0, "migration fired: {summary:?}");
        assert!(summary.peak_live > 16, "sessions overlap: {summary:?}");
        // Long-tail sizes: both ends of the distribution appear.
        let sizes: Vec<u32> = trc
            .streams
            .iter()
            .flatten()
            .filter_map(|r| match r.op {
                TrcOp::Alloc { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        let small_count = sizes.iter().filter(|&&s| s < 128).count();
        let big = sizes.iter().filter(|&&s| s > 4096).count();
        assert!(small_count > sizes.len() / 2, "most sessions are small");
        assert!(big > 0, "a heavy tail exists");
    }

    #[test]
    fn timestamps_are_monotone_per_stream() {
        // dt is a saturating delta, so monotonicity holds by
        // construction; what needs checking is that frees really are
        // interleaved with allocs (lifetimes overlap arrivals) rather
        // than batched at the end.
        let (trc, _) = generate(&small());
        for stream in &trc.streams {
            let first_free = stream
                .iter()
                .position(|r| matches!(r.op, TrcOp::Free { .. }));
            let last_alloc = stream
                .iter()
                .rposition(|r| matches!(r.op, TrcOp::Alloc { .. }));
            if let (Some(f), Some(a)) = (first_free, last_alloc) {
                assert!(f < a, "frees interleave with allocs");
            }
        }
    }
}
